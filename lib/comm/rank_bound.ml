module Bm = Commx_util.Bitmat
module Zm = Commx_linalg.Zmatrix

let gf2_rank = Bm.rank

let native_side_limit = 22

(* Fraction-free Bareiss elimination on one flat int grid.  After [k]
   pivots every live entry is a (k+1)x(k+1) minor of the input and
   [prev] a k x k one, so with the smaller side at most 22 each product
   below is at most H(22)^2 < 2^60.1 in magnitude (see the .mli) and the
   division by [prev] is exact. *)
let native_rank m =
  let nr = Bm.rows m and nc = Bm.cols m in
  let a = Array.make (nr * nc) 0 in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      if Bm.get m i j then a.((i * nc) + j) <- 1
    done
  done;
  let r = ref 0 and prev = ref 1 in
  for c = 0 to nc - 1 do
    if !r < nr then begin
      let piv = ref !r in
      while !piv < nr && a.((!piv * nc) + c) = 0 do
        incr piv
      done;
      if !piv < nr then begin
        let rr = !r * nc in
        if !piv <> !r then begin
          let pr = !piv * nc in
          for j = c to nc - 1 do
            let t = a.(rr + j) in
            a.(rr + j) <- a.(pr + j);
            a.(pr + j) <- t
          done
        end;
        let arc = a.(rr + c) and p = !prev in
        for i = !r + 1 to nr - 1 do
          let ri = i * nc in
          let aic = a.(ri + c) in
          for j = c + 1 to nc - 1 do
            a.(ri + j) <- ((arc * a.(ri + j)) - (aic * a.(rr + j))) / p
          done
        done;
        prev := arc;
        incr r
      end
    end
  done;
  !r

let rational_rank m =
  if min (Bm.rows m) (Bm.cols m) <= native_side_limit then native_rank m
  else
    Zm.rank
      (Zm.of_int_fn (Bm.rows m) (Bm.cols m) (fun i j ->
           if Bm.get m i j then 1 else 0))

let log2_int n = if n <= 0 then 0.0 else log (float_of_int n) /. log 2.0

let log_rank_bound m = log2_int (rational_rank m)

type report = {
  n_rows : int;
  n_cols : int;
  ones : int;
  gf2 : int;
  rational : int;
  log_rank : float;
  fooling : int;
  fooling_bits : float;
  cover_bits : float;
  trivial_upper : float;
}

let analyze tm ~exact_rect =
  let m = tm.Truth_matrix.values in
  let g = Commx_util.Prng.create 1234 in
  let fooling_set = Fooling.greedy_randomized g tm in
  let rational = rational_rank m in
  {
    n_rows = Bm.rows m;
    n_cols = Bm.cols m;
    ones = Bm.count_ones m;
    gf2 = gf2_rank m;
    rational;
    log_rank = log2_int rational;
    fooling = List.length fooling_set;
    fooling_bits = Fooling.lower_bound_bits fooling_set;
    cover_bits = Rectangle.cover_lower_bound m ~exact:exact_rect;
    trivial_upper = log2_int (max 1 (min (Bm.rows m) (Bm.cols m)));
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>truth matrix %dx%d, %d ones@,\
     rank: GF(2)=%d, Q=%d (log-rank bound %.2f bits)@,\
     fooling set: %d (%.2f bits)@,\
     rectangle-cover bound: %.2f bits@,\
     trivial upper bound: %.2f bits@]"
    r.n_rows r.n_cols r.ones r.gf2 r.rational r.log_rank r.fooling
    r.fooling_bits r.cover_bits r.trivial_upper
