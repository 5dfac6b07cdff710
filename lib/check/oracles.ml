module Bitvec = Commx_util.Bitvec
module Bitmat = Commx_util.Bitmat
module B = Commx_bigint.Bigint
module Zm = Commx_linalg.Zmatrix

let popcount_int_naive x =
  if x < 0 then invalid_arg "Oracles.popcount_int_naive: negative";
  let c = ref 0 in
  for i = 0 to 62 do
    if (x lsr i) land 1 = 1 then incr c
  done;
  !c

let bitvec_bools v = Array.init (Bitvec.length v) (Bitvec.get v)

let mono_masked_naive m ~rmask ~cmask =
  let seen0 = ref false and seen1 = ref false in
  for i = 0 to Bitmat.rows m - 1 do
    if (rmask lsr i) land 1 = 1 then
      for j = 0 to Bitmat.cols m - 1 do
        if (cmask lsr j) land 1 = 1 then
          if Bitmat.get m i j then seen1 := true else seen0 := true
      done
  done;
  if !seen0 && !seen1 then -1 else if !seen1 then 1 else 0

let count_ones_naive m =
  let c = ref 0 in
  for i = 0 to Bitmat.rows m - 1 do
    for j = 0 to Bitmat.cols m - 1 do
      if Bitmat.get m i j then incr c
    done
  done;
  !c

let rec det_cofactor m =
  let n = Zm.rows m in
  if n <> Zm.cols m then invalid_arg "Oracles.det_cofactor: not square";
  if n = 0 then B.one
  else if n = 1 then Zm.get m 0 0
  else begin
    let acc = ref B.zero in
    for j = 0 to n - 1 do
      let c = Zm.get m 0 j in
      if not (B.is_zero c) then begin
        let minor =
          Zm.init (n - 1) (n - 1) (fun i' j' ->
              Zm.get m (i' + 1) (if j' < j then j' else j' + 1))
        in
        let term = B.mul c (det_cofactor minor) in
        acc := (if j land 1 = 0 then B.add !acc term else B.sub !acc term)
      end
    done;
    !acc
  end

(* The list-walking lower-bound members the word-level kernels in
   [Commx_comm] replaced, kept as written there (less the rectangle
   telemetry counter). *)
module Truth_matrix = Commx_comm.Truth_matrix
module Rectangle = Commx_comm.Rectangle

let compatible tm chosen (i, j) =
  Truth_matrix.get tm i j
  && List.for_all
       (fun (i', j') ->
         (not (Truth_matrix.get tm i j')) || not (Truth_matrix.get tm i' j))
       chosen

let fooling_greedy tm =
  let chosen = ref [] in
  for i = 0 to Truth_matrix.rows tm - 1 do
    for j = 0 to Truth_matrix.cols tm - 1 do
      if compatible tm !chosen (i, j) then chosen := (i, j) :: !chosen
    done
  done;
  List.rev !chosen

let fooling_greedy_randomized g ?(restarts = 16) tm =
  let nr = Truth_matrix.rows tm and nc = Truth_matrix.cols tm in
  let all = Array.init (nr * nc) (fun x -> (x / nc, x mod nc)) in
  let best = ref (fooling_greedy tm) in
  for _ = 1 to restarts do
    Commx_util.Prng.shuffle g all;
    let chosen = ref [] in
    Array.iter
      (fun p -> if compatible tm !chosen p then chosen := p :: !chosen)
      all;
    if List.length !chosen > List.length !best then best := !chosen
  done;
  !best

let max_one_rectangle_exact ?(min_rows = 1) m =
  let transposed = min_rows <= 1 && Bitmat.rows m > Bitmat.cols m in
  let work = if transposed then Bitmat.transpose m else m in
  let nr = Bitmat.rows work in
  if nr > 22 then
    invalid_arg "Rectangle.max_one_rectangle_exact: dimension too large";
  let best = ref { Rectangle.row_set = [||]; col_set = [||] } in
  let best_area = ref 0 in
  let row_bits = Array.init nr (fun i -> Bitmat.row work i) in
  Commx_util.Combi.iter_subsets nr (fun subset ->
      let rows_sel = Array.of_list subset in
      let k = Array.length rows_sel in
      if k >= min_rows && k > 0 then begin
        let inter = Bitvec.copy row_bits.(rows_sel.(0)) in
        Array.iter (fun i -> if i <> rows_sel.(0) then Bitvec.and_into inter row_bits.(i)) rows_sel;
        let ncols = Bitvec.popcount inter in
        if k * ncols > !best_area then begin
          best_area := k * ncols;
          let cols_sel =
            Array.of_list (List.rev (Bitvec.fold_set_bits (fun j acc -> j :: acc) inter []))
          in
          best := { row_set = rows_sel; col_set = cols_sel }
        end
      end);
  if transposed then
    { Rectangle.row_set = !best.col_set; col_set = !best.row_set }
  else !best

let cover_lower_bound_exact m =
  let ones = Bitmat.count_ones m in
  let zeros = (Bitmat.rows m * Bitmat.cols m) - ones in
  let one_rect = max_one_rectangle_exact m
  and zero_rect = max_one_rectangle_exact (Bitmat.complement m) in
  let parts_for count rect =
    if count = 0 then 0.0
    else if Rectangle.area rect = 0 then infinity
    else float_of_int count /. float_of_int (Rectangle.area rect)
  in
  let total = parts_for ones one_rect +. parts_for zeros zero_rect in
  if total <= 0.0 then 0.0 else log total /. log 2.0

module Table_model = struct
  type t = (int, int) Hashtbl.t

  let create () = Hashtbl.create 16
  let set t k v = Hashtbl.replace t k v
  let find t k = Option.value (Hashtbl.find_opt t k) ~default:(-1)
  let length t = Hashtbl.length t
  let fold f t init = Hashtbl.fold f t init
end
