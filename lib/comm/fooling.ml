module Bm = Commx_util.Bitmat

type t = (int * int) list

let is_fooling_set tm s =
  let ok_entry (i, j) = Truth_matrix.get tm i j in
  let ok_pair (i1, j1) (i2, j2) =
    (not (Truth_matrix.get tm i1 j2)) || not (Truth_matrix.get tm i2 j1)
  in
  List.for_all ok_entry s
  &&
  let rec pairs = function
    | [] -> true
    | p :: rest -> List.for_all (ok_pair p) rest && pairs rest
  in
  pairs s

(* The greedy kernel.  The board is read once into a flat byte grid
   ([cells.[i * nc + j]] is '\001' for a one) and the pairs chosen so
   far live in two int arrays, rows in [ri] and columns in [cj].  A
   fooling set never repeats a row or a column (two of its pairs on one
   row would make both cross entries ones), so [min nr nc] slots
   suffice. *)
type grid = { nc : int; cells : Bytes.t }

let read_grid m =
  let nr = Bm.rows m and nc = Bm.cols m in
  let cells = Bytes.make (nr * nc) '\000' in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      if Bm.get m i j then Bytes.set cells ((i * nc) + j) '\001'
    done
  done;
  { nc; cells }

let one g x = Bytes.get g.cells x = '\001'

(* Offer cell [x] to the [n] pairs in [ri]/[cj]; the new pair count. *)
let offer g ri cj n x =
  if not (one g x) then n
  else begin
    let nc = g.nc in
    let i = x / nc and j = x mod nc in
    let k = ref 0 in
    while !k < n && not (one g ((i * nc) + cj.(!k)) && one g ((ri.(!k) * nc) + j)) do
      incr k
    done;
    if !k < n then n
    else begin
      ri.(n) <- i;
      cj.(n) <- j;
      n + 1
    end
  end

(* The pairs as a list, in insertion order or newest first. *)
let pairs ri cj n ~newest_first =
  let acc = ref [] in
  if newest_first then
    for k = 0 to n - 1 do
      acc := (ri.(k), cj.(k)) :: !acc
    done
  else
    for k = n - 1 downto 0 do
      acc := (ri.(k), cj.(k)) :: !acc
    done;
  !acc

let scratch m = Array.make (min (Bm.rows m) (Bm.cols m)) 0

(* Row-major scan: the deterministic greedy pass. *)
let scan g ri cj =
  let n = ref 0 in
  for x = 0 to Bytes.length g.cells - 1 do
    n := offer g ri cj !n x
  done;
  !n

let greedy_bitmat m =
  let g = read_grid m in
  let ri = scratch m and cj = scratch m in
  pairs ri cj (scan g ri cj) ~newest_first:false

let greedy tm = greedy_bitmat tm.Truth_matrix.values

(* Each restart reshuffles the previous order in place, as one
   cumulative permutation of the cell indices. *)
let greedy_randomized prng ?(restarts = 16) tm =
  let m = tm.Truth_matrix.values in
  let g = read_grid m in
  let best_r = scratch m and best_c = scratch m in
  let cur_r = scratch m and cur_c = scratch m in
  let best_n = ref (scan g best_r best_c) and newest_first = ref false in
  let order = Array.init (Bytes.length g.cells) Fun.id in
  for _ = 1 to restarts do
    Commx_util.Prng.shuffle prng order;
    let n = Array.fold_left (offer g cur_r cur_c) 0 order in
    if n > !best_n then begin
      Array.blit cur_r 0 best_r 0 n;
      Array.blit cur_c 0 best_c 0 n;
      best_n := n;
      newest_first := true
    end
  done;
  pairs best_r best_c !best_n ~newest_first:!newest_first

let diagonal_candidate tm =
  let n = min (Truth_matrix.rows tm) (Truth_matrix.cols tm) in
  List.filter
    (fun (i, j) -> Truth_matrix.get tm i j)
    (List.init n (fun i -> (i, i)))

let lower_bound_bits s =
  log (float_of_int (max 1 (List.length s))) /. log 2.0

let is_identity_embedding tm s =
  List.for_all (fun (i, j) -> Truth_matrix.get tm i j) s
  &&
  let rec pairs = function
    | [] -> true
    | (i1, j1) :: rest ->
        List.for_all
          (fun (i2, j2) ->
            (not (Truth_matrix.get tm i1 j2))
            && not (Truth_matrix.get tm i2 j1))
          rest
        && pairs rest
  in
  pairs s

let largest_identity_embedding tm =
  (* Max clique in the compatibility graph over one-cells, where two
     cells are compatible when both cross entries are zero.  Plain
     branch and bound with a remaining-candidates cutoff. *)
  let ones = ref [] in
  for i = Truth_matrix.rows tm - 1 downto 0 do
    for j = Truth_matrix.cols tm - 1 downto 0 do
      if Truth_matrix.get tm i j then ones := (i, j) :: !ones
    done
  done;
  let compat (i1, j1) (i2, j2) =
    (not (Truth_matrix.get tm i1 j2)) && not (Truth_matrix.get tm i2 j1)
  in
  let best = ref [] in
  let rec extend chosen candidates =
    if List.length chosen + List.length candidates <= List.length !best then ()
    else
      match candidates with
      | [] -> if List.length chosen > List.length !best then best := chosen
      | c :: rest ->
          (* include c *)
          extend (c :: chosen) (List.filter (compat c) rest);
          (* exclude c *)
          extend chosen rest
  in
  extend [] !ones;
  !best
