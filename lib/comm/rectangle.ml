module Bm = Commx_util.Bitmat
module Bv = Commx_util.Bitvec
module Prng = Commx_util.Prng
module Tel = Commx_util.Telemetry

(* Candidate rectangles examined: [2^rows] subsets for the exact
   enumerator, one per restart for the greedy search.  A function of
   the matrix shape / restart budget only, so jobs-invariant. *)
let candidates_counter = Tel.counter "rectangle.candidates"

type rect = { row_set : int array; col_set : int array }

let area r = Array.length r.row_set * Array.length r.col_set

let is_monochromatic m r =
  if area r = 0 then None
  else begin
    let v0 = Bm.get m r.row_set.(0) r.col_set.(0) in
    let mono = ref true in
    Array.iter
      (fun i ->
        Array.iter (fun j -> if Bm.get m i j <> v0 then mono := false) r.col_set)
      r.row_set;
    if !mono then Some v0 else None
  end

let count_ones_rectangle_rows m rows_sel =
  let cols = Bm.cols m in
  let acc = ref [] in
  for j = cols - 1 downto 0 do
    if Array.for_all (fun i -> Bm.get m i j) rows_sel then acc := j :: !acc
  done;
  Array.of_list !acc

let exact_side_limit = 22

(* The lines the exact search enumerates, as [nw]-word bitsets of
   length [len] in one flat array: the rows of [m], or its columns when
   [transposed], with every cell flipped when [zeros]. *)
type lines = { nl : int; len : int; nw : int; words : int array }

let bpw = Bv.bits_per_word

let read_lines m ~transposed ~zeros =
  let nl = if transposed then Bm.cols m else Bm.rows m in
  if nl > exact_side_limit then
    invalid_arg "Rectangle.max_one_rectangle_exact: dimension too large";
  let len = if transposed then Bm.rows m else Bm.cols m in
  let nw = (len + bpw - 1) / bpw in
  let words = Array.make (nl * nw) 0 in
  for l = 0 to nl - 1 do
    for x = 0 to len - 1 do
      let v = if transposed then Bm.get m x l else Bm.get m l x in
      if v <> zeros then begin
        let w = (l * nw) + (x / bpw) in
        words.(w) <- words.(w) lor (1 lsl (x mod bpw))
      end
    done
  done;
  { nl; len; nw; words }

(* Largest [k * |common columns|] over line subsets of size k >=
   [min_rows], depth first.  [go b k p] extends the [k] lines chosen so
   far (held in [stack], their [p] common columns at level [k] of
   [inter]) by subsets of lines [0 .. b-1]: first without line [b-1],
   then with it.  That visits subsets in increasing bitmask order, the
   order of [Combi.iter_subsets], and only a strictly larger area
   replaces the best, so ties resolve to the same rectangle.  Every
   subset below a node has area at most [(k + b) * p], so a node that
   cannot beat the best is skipped whole. *)
let max_rectangle ~min_rows { nl; len; nw; words } =
  Tel.add candidates_counter (1 lsl nl);
  let inter = Array.make ((nl + 1) * nw) 0 in
  for w = 0 to nw - 1 do
    inter.(w) <- (1 lsl min bpw (len - (w * bpw))) - 1
  done;
  let stack = Array.make nl 0 in
  let best = ref { row_set = [||]; col_set = [||] } and best_area = ref 0 in
  let record k p =
    let cols = Array.make p 0 and c = ref 0 in
    for w = 0 to nw - 1 do
      let v = inter.((k * nw) + w) in
      for x = 0 to bpw - 1 do
        if (v lsr x) land 1 = 1 then begin
          cols.(!c) <- (w * bpw) + x;
          incr c
        end
      done
    done;
    best := { row_set = Array.init k (fun t -> stack.(k - 1 - t)); col_set = cols }
  in
  let rec go b k p =
    if b > 0 && (k + b) * p > !best_area then begin
      go (b - 1) k p;
      let l = b - 1 and k' = k + 1 in
      let p' = ref 0 in
      for w = 0 to nw - 1 do
        let v = inter.((k * nw) + w) land words.((l * nw) + w) in
        inter.((k' * nw) + w) <- v;
        p' := !p' + Bv.popcount_int v
      done;
      stack.(k) <- l;
      if k' >= min_rows && k' * !p' > !best_area then begin
        best_area := k' * !p';
        record k' !p'
      end;
      go (b - 1) k' !p'
    end
  in
  go nl 0 len;
  !best

(* The transpose speed-up enumerates the smaller dimension, but a
   min_rows constraint refers to the original rows, so it disables the
   swap. *)
let max_exact ?(min_rows = 1) ~zeros m =
  let transposed = min_rows <= 1 && Bm.rows m > Bm.cols m in
  let r = max_rectangle ~min_rows (read_lines m ~transposed ~zeros) in
  if transposed then { row_set = r.col_set; col_set = r.row_set } else r

let max_one_rectangle_exact ?min_rows m = max_exact ?min_rows ~zeros:false m

let max_zero_rectangle_exact ?min_rows m = max_exact ?min_rows ~zeros:true m

let max_one_rectangle_greedy g ?(restarts = 32) m =
  let nr = Bm.rows m and nc = Bm.cols m in
  if nr = 0 || nc = 0 then { row_set = [||]; col_set = [||] }
  else begin
    Tel.add candidates_counter restarts;
    let best = ref { row_set = [||]; col_set = [||] } in
    let best_area = ref 0 in
    for _ = 1 to restarts do
      (* Seed with a random one-entry, then greedily add rows in random
         order while the column intersection stays profitable. *)
      let i0 = Prng.int g nr in
      let cols0 = count_ones_rectangle_rows m [| i0 |] in
      if Array.length cols0 > 0 then begin
        let rows_sel = ref [ i0 ] in
        let cols_cur = ref cols0 in
        let order = Array.init nr (fun i -> i) in
        Prng.shuffle g order;
        Array.iter
          (fun i ->
            if not (List.mem i !rows_sel) then begin
              let surviving =
                Array.of_list
                  (List.filter
                     (fun j -> Bm.get m i j)
                     (Array.to_list !cols_cur))
              in
              let new_area = (List.length !rows_sel + 1) * Array.length surviving in
              let cur_area = List.length !rows_sel * Array.length !cols_cur in
              if new_area >= cur_area && Array.length surviving > 0 then begin
                rows_sel := i :: !rows_sel;
                cols_cur := surviving
              end
            end)
          order;
        let r = { row_set = Array.of_list !rows_sel; col_set = !cols_cur } in
        if area r > !best_area then begin
          best_area := area r;
          best := r
        end
      end
    done;
    !best
  end

let cover_lower_bound m ~exact =
  let ones = Bm.count_ones m in
  let zeros = (Bm.rows m * Bm.cols m) - ones in
  let one_rect, zero_rect =
    if exact then
      (max_one_rectangle_exact m, max_zero_rectangle_exact m)
    else begin
      let g = Prng.create 42 in
      ( max_one_rectangle_greedy g m,
        max_one_rectangle_greedy g (Bm.complement m) )
    end
  in
  let parts_for count rect =
    if count = 0 then 0.0
    else if area rect = 0 then infinity
    else float_of_int count /. float_of_int (area rect)
  in
  let total = parts_for ones one_rect +. parts_for zeros zero_rect in
  if total <= 0.0 then 0.0 else log total /. log 2.0
