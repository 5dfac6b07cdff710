(* Tests for the communication-complexity framework: encodings,
   partitions, the bit-counting channel, truth matrices, rectangle
   analysis (exact vs brute force), fooling sets, and rank bounds. *)

module Bv = Commx_util.Bitvec
module Bm = Commx_util.Bitmat
module Prng = Commx_util.Prng
module B = Commx_bigint.Bigint
module Encode = Commx_comm.Encode
module Partition = Commx_comm.Partition
module Protocol = Commx_comm.Protocol
module Tm = Commx_comm.Truth_matrix
module Rect = Commx_comm.Rectangle
module Fooling = Commx_comm.Fooling
module Rank_bound = Commx_comm.Rank_bound

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Encode                                                              *)
(* ------------------------------------------------------------------ *)

let test_bits_for_range () =
  List.iter
    (fun (card, expect) ->
      Alcotest.(check int) (string_of_int card) expect (Encode.bits_for_range card))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (256, 8); (257, 9) ]

let prop_int_roundtrip (v, extra) =
  let v = abs v mod (1 lsl 20) in
  let width = 20 + (abs extra mod 10) in
  Encode.decode_int (Encode.encode_int ~width v) = v

let prop_bigint_roundtrip v =
  let v = B.of_int (abs v) in
  let width = max 1 (B.bit_length v) in
  B.equal (Encode.decode_bigint (Encode.encode_bigint ~width v)) v

let test_encode_rejects () =
  Alcotest.check_raises "too wide" (Invalid_argument "Encode.encode_int: value too wide")
    (fun () -> ignore (Encode.encode_int ~width:3 9))

let prop_entries_roundtrip l =
  let k = 7 in
  let entries = Array.of_list (List.map (fun v -> B.of_int (abs v mod 128)) l) in
  let decoded = Encode.decode_entries ~k (Encode.encode_entries ~k entries) in
  Array.length decoded = Array.length entries
  && Array.for_all2 B.equal decoded entries

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_first_half () =
  let p = Partition.first_half 10 in
  Alcotest.(check bool) "even" true (Partition.is_even p);
  Alcotest.(check int) "agent of 0" 1 (Partition.agent_of p 0);
  Alcotest.(check int) "agent of 9" 2 (Partition.agent_of p 9);
  let a1, a2 = Partition.halves p in
  Alcotest.(check (array int)) "a1" [| 0; 1; 2; 3; 4 |] a1;
  Alcotest.(check (array int)) "a2" [| 5; 6; 7; 8; 9 |] a2

let prop_random_even seed =
  let g = Prng.create seed in
  let p = Partition.random_even g 24 in
  Partition.is_even p

let prop_complement_swaps seed =
  let g = Prng.create seed in
  let p = Partition.random_even g 16 in
  let c = Partition.complement p in
  List.for_all
    (fun i -> Partition.agent_of p i <> Partition.agent_of c i)
    (List.init 16 (fun i -> i))

let prop_permutation_preserves_evenness seed =
  let g = Prng.create seed in
  let p = Partition.random_even g 12 in
  let perm = Array.init 12 (fun i -> i) in
  Prng.shuffle g perm;
  Partition.is_even (Partition.apply_permutation p perm)

let test_matrix_indexing () =
  (* column-major: index ~n ~row ~col = col*n + row *)
  Alcotest.(check int) "0,0" 0 (Partition.index ~n:4 ~row:0 ~col:0);
  Alcotest.(check int) "3,0" 3 (Partition.index ~n:4 ~row:3 ~col:0);
  Alcotest.(check int) "0,1" 4 (Partition.index ~n:4 ~row:0 ~col:1);
  let row, col = Partition.row_col ~n:4 7 in
  Alcotest.(check (pair int int)) "row_col" (3, 1) (row, col)

(* ------------------------------------------------------------------ *)
(* Protocol channel                                                    *)
(* ------------------------------------------------------------------ *)

let test_channel_counts () =
  let p =
    {
      Protocol.name = "demo";
      run =
        (fun ch x y ->
          let bx = Protocol.send ch (Bv.of_int 5 x) in
          let _ = Protocol.send_bit ch true in
          let v = Encode.decode_int bx in
          v = y);
    }
  in
  let out, bits = Protocol.execute p 12 12 in
  Alcotest.(check bool) "output" true out;
  Alcotest.(check int) "bits" 6 bits;
  Alcotest.(check int) "worst case" 6
    (Protocol.worst_case_cost p [ 1; 2; 3 ] [ 0; 7 ])

(* Regression: an empty side of the rectangle used to fold to cost 0,
   which read downstream as a free protocol. *)
let test_worst_case_empty_inputs () =
  let p = { Protocol.name = "id"; run = (fun _ x y -> x = y) } in
  let expect = Invalid_argument "Protocol.worst_case_cost: empty input list" in
  Alcotest.check_raises "empty xs" expect (fun () ->
      ignore (Protocol.worst_case_cost p [] [ 1; 2 ]));
  Alcotest.check_raises "empty ys" expect (fun () ->
      ignore (Protocol.worst_case_cost p [ 1; 2 ] []))

let test_check_correct () =
  let eq_proto =
    {
      Protocol.name = "eq";
      run =
        (fun ch x y ->
          let x' = Protocol.send_int ch ~width:4 x in
          x' = y);
    }
  in
  let inputs = List.init 8 (fun i -> i) in
  Alcotest.(check bool) "correct" true
    (Protocol.check_correct eq_proto ~spec:( = ) inputs inputs = None);
  let broken =
    { Protocol.name = "broken"; run = (fun _ x y -> x = y || x = 3) }
  in
  (match Protocol.check_correct broken ~spec:( = ) inputs inputs with
  | Some ((3, _), true, false) -> ()
  | _ -> Alcotest.fail "expected counterexample at x=3")

(* ------------------------------------------------------------------ *)
(* Truth matrix                                                        *)
(* ------------------------------------------------------------------ *)

let tm_and =
  (* f(x, y) = x && y on booleans: a 2x2 matrix with one 1 *)
  Tm.build [ false; true ] [ false; true ] (fun x y -> x && y)

let test_truth_matrix_basics () =
  Alcotest.(check int) "rows" 2 (Tm.rows tm_and);
  Alcotest.(check int) "ones" 1 (Tm.count_ones tm_and);
  Alcotest.(check int) "zeros" 3 (Tm.count_zeros tm_and);
  Alcotest.(check bool) "value" true (Tm.get tm_and 1 1);
  Alcotest.(check (float 1e-9)) "density" 0.25 (Tm.density tm_and)

let test_truth_matrix_restrict () =
  let tm = Tm.build [ 0; 1; 2 ] [ 0; 1; 2 ] (fun x y -> x <= y) in
  let r = Tm.restrict tm [| 1; 2 |] [| 0 |] in
  Alcotest.(check int) "rows" 2 (Tm.rows r);
  Alcotest.(check int) "ones" 0 (Tm.count_ones r)

(* ------------------------------------------------------------------ *)
(* Rectangles: exact search vs brute force oracle                      *)
(* ------------------------------------------------------------------ *)

let brute_force_max_one_rect m =
  (* over all row subsets (small!) *)
  let best = ref 0 in
  Commx_util.Combi.iter_subsets (Bm.rows m) (fun rows_l ->
      match rows_l with
      | [] -> ()
      | rows_l ->
          let rows_sel = Array.of_list rows_l in
          let cols = Rect.count_ones_rectangle_rows m rows_sel in
          best := max !best (Array.length rows_sel * Array.length cols));
  !best

let gen_small_bitmat =
  QCheck.Gen.(
    int_range 1 6 >>= fun r ->
    int_range 1 6 >>= fun c ->
    int_range 0 10000 >>= fun seed ->
    int_range 1 9 >>= fun tenths ->
    return (r, c, seed, tenths))

let arb_small_bitmat =
  QCheck.make
    ~print:(fun (r, c, s, t) -> Printf.sprintf "%dx%d seed=%d dens=%d" r c s t)
    gen_small_bitmat

let mat_of (r, c, seed, tenths) =
  let g = Prng.create seed in
  Bm.init r c (fun _ _ -> Prng.int g 10 < tenths)

let prop_exact_rect_matches_brute params =
  let m = mat_of params in
  let rect = Rect.max_one_rectangle_exact m in
  Rect.area rect = brute_force_max_one_rect m

let prop_exact_rect_is_all_ones params =
  let m = mat_of params in
  let rect = Rect.max_one_rectangle_exact m in
  Rect.area rect = 0 || Rect.is_monochromatic m rect = Some true

let prop_greedy_never_beats_exact params =
  let m = mat_of params in
  let g = Prng.create 99 in
  let greedy = Rect.max_one_rectangle_greedy g m in
  let exact = Rect.max_one_rectangle_exact m in
  Rect.area greedy <= Rect.area exact
  && (Rect.area greedy = 0 || Rect.is_monochromatic m greedy = Some true)

let prop_min_rows_respected params =
  let m = mat_of params in
  if Bm.rows m < 2 then true
  else begin
    let rect = Rect.max_one_rectangle_exact ~min_rows:2 m in
    Rect.area rect = 0 || Array.length rect.Rect.row_set >= 2
  end

let test_rect_known () =
  (* all-ones 3x4: max rectangle is everything *)
  let m = Bm.init 3 4 (fun _ _ -> true) in
  Alcotest.(check int) "all ones" 12 (Rect.area (Rect.max_one_rectangle_exact m));
  (* identity: max 1-rectangle is a single cell *)
  let id = Bm.identity 5 in
  Alcotest.(check int) "identity" 1 (Rect.area (Rect.max_one_rectangle_exact id));
  (* zero rectangle of identity: the off-diagonal 2x2 blocks and
     bigger: best is floor(n/2)*ceil... for I5 complement: known best
     is 2x3 or 3x2 = 6 *)
  Alcotest.(check int) "identity zeros" 6
    (Rect.area (Rect.max_zero_rectangle_exact id))

(* The enumerator's own guard is the documented one: 21 and 22
   enumerated lines run, 23 raise the Rectangle message (not a
   Combi.iter_subsets failure from an inner enumerator's lower cap). *)
let test_rect_size_guard () =
  let g = Prng.create 21 in
  List.iter
    (fun (r, c) ->
      let m = Bm.init r c (fun _ _ -> Prng.int g 10 < 6) in
      let rect = Rect.max_one_rectangle_exact m in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d all-ones rectangle" r c)
        true
        (Rect.area rect > 0 && Rect.is_monochromatic m rect = Some true))
    [ (21, 23); (23, 21); (22, 30) ];
  let too_large = Invalid_argument "Rectangle.max_one_rectangle_exact: dimension too large" in
  List.iter
    (fun (r, c) ->
      let m = Bm.init r c (fun _ _ -> Prng.bool g) in
      Alcotest.check_raises (Printf.sprintf "%dx%d raises" r c) too_large (fun () ->
          ignore (Rect.max_one_rectangle_exact m));
      Alcotest.check_raises (Printf.sprintf "%dx%d zeros raises" r c) too_large
        (fun () -> ignore (Rect.max_zero_rectangle_exact m)))
    [ (23, 23); (23, 40) ]

let test_cover_bound_identity () =
  (* For EQ on m bits the partition bound is >= 2^m (ones alone) *)
  let m = Bm.identity 16 in
  let bound = Rect.cover_lower_bound m ~exact:true in
  Alcotest.(check bool) "identity >= 4 bits" true (bound >= 4.0)

(* ------------------------------------------------------------------ *)
(* Fooling sets                                                        *)
(* ------------------------------------------------------------------ *)

let eq_tm m = Tm.build (List.init m (fun i -> i)) (List.init m (fun i -> i)) ( = )

let test_fooling_identity () =
  let tm = eq_tm 8 in
  let diag = Fooling.diagonal_candidate tm in
  Alcotest.(check int) "diagonal size" 8 (List.length diag);
  Alcotest.(check bool) "diagonal valid" true (Fooling.is_fooling_set tm diag);
  let g = Prng.create 5 in
  let found = Fooling.greedy_randomized g tm in
  Alcotest.(check int) "greedy finds max" 8 (List.length found)

let test_fooling_rejects () =
  (* all-ones matrix: no two pairs can coexist *)
  let tm = Tm.build [ 0; 1 ] [ 0; 1 ] (fun _ _ -> true) in
  Alcotest.(check bool) "two ones in all-ones invalid" false
    (Fooling.is_fooling_set tm [ (0, 0); (1, 1) ]);
  Alcotest.(check bool) "singleton fine" true
    (Fooling.is_fooling_set tm [ (0, 0) ])

let test_identity_embedding () =
  (* EQ: the whole diagonal is an identity embedding *)
  let tm = eq_tm 6 in
  let e = Fooling.largest_identity_embedding tm in
  Alcotest.(check int) "EQ full diagonal" 6 (List.length e);
  Alcotest.(check bool) "valid" true (Fooling.is_identity_embedding tm e);
  (* all-ones: at most one pair *)
  let ones = Tm.build [ 0; 1 ] [ 0; 1 ] (fun _ _ -> true) in
  Alcotest.(check int) "all-ones" 1
    (List.length (Fooling.largest_identity_embedding ones));
  (* tiny singularity (2x2 one-bit): the identity embedding is small —
     the Vuillemin obstruction the paper describes *)
  let sing_inputs = List.init 4 (fun v -> (v lsr 1, v land 1)) in
  let sing =
    Tm.build sing_inputs sing_inputs (fun (a, c) (b, d) ->
        (a * d) - (b * c) = 0)
  in
  let se = Fooling.largest_identity_embedding sing in
  Alcotest.(check bool) "valid on singularity" true
    (Fooling.is_identity_embedding sing se);
  Alcotest.(check bool)
    (Printf.sprintf "small (%d < 4)" (List.length se))
    true
    (List.length se < 4)

let prop_identity_embedding_is_fooling params =
  let m = mat_of params in
  let tm =
    Tm.build
      (List.init (Bm.rows m) (fun i -> i))
      (List.init (Bm.cols m) (fun j -> j))
      (fun i j -> Bm.get m i j)
  in
  let e = Fooling.largest_identity_embedding tm in
  Fooling.is_identity_embedding tm e && Fooling.is_fooling_set tm e

let prop_greedy_fooling_valid params =
  let m = mat_of params in
  let tm =
    Tm.build
      (List.init (Bm.rows m) (fun i -> i))
      (List.init (Bm.cols m) (fun j -> j))
      (fun i j -> Bm.get m i j)
  in
  Fooling.is_fooling_set tm (Fooling.greedy tm)

(* ------------------------------------------------------------------ *)
(* Protocol trees and Yao's structure theorem                          *)
(* ------------------------------------------------------------------ *)

module Ptree = Commx_comm.Ptree

(* A hand-built 2-bit protocol for GT on 2-bit numbers:
   Alice sends her high bit, Bob answers x > y. *)
let gt_tree : (int, int) Ptree.t =
  (* Alice reveals both bits of x, Bob answers x > y. *)
  let bit i x = x lsr i land 1 = 1 in
  Ptree.Alice
    ( bit 1,
      Ptree.Alice
        ( bit 0,
          Ptree.Bob ((fun y -> 0 > y), Ptree.Answer false, Ptree.Answer true),
          Ptree.Bob ((fun y -> 1 > y), Ptree.Answer false, Ptree.Answer true) ),
      Ptree.Alice
        ( bit 0,
          Ptree.Bob ((fun y -> 2 > y), Ptree.Answer false, Ptree.Answer true),
          Ptree.Bob ((fun y -> 3 > y), Ptree.Answer false, Ptree.Answer true) ) )

let test_ptree_eval_cost () =
  Alcotest.(check bool) "3 > 2" true (Ptree.eval gt_tree 3 2);
  Alcotest.(check bool) "1 > 2" false (Ptree.eval gt_tree 1 2);
  Alcotest.(check int) "cost" 3 (Ptree.cost gt_tree);
  Alcotest.(check int) "leaves" 8 (Ptree.leaves gt_tree);
  let inputs = [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "correct" true
    (Ptree.correct_on gt_tree ~spec:( > ) inputs inputs);
  Alcotest.(check int) "transcript length" 3
    (Bv.length (Ptree.transcript gt_tree 2 1))

let test_ptree_yao_structure () =
  let inputs = [ 0; 1; 2; 3 ] in
  let tm = Tm.build inputs inputs ( > ) in
  let ind = Ptree.induced_partition gt_tree tm in
  Alcotest.(check bool) "rectangles cover disjointly" true
    ind.Ptree.disjoint_cover;
  Alcotest.(check bool) "monochromatic (protocol is correct)" true
    ind.Ptree.monochromatic;
  Alcotest.(check bool) "count <= 2^cost" true
    (ind.Ptree.count <= 1 lsl Ptree.cost gt_tree);
  Alcotest.(check bool) "yao bound" true (Ptree.yao_bound_holds gt_tree tm)

let test_ptree_incorrect_protocol_not_mono () =
  (* A protocol that answers without enough communication cannot have
     all leaves monochromatic for EQ. *)
  let cheap : (int, int) Ptree.t =
    Ptree.Alice ((fun x -> x land 1 = 1), Ptree.Answer false, Ptree.Answer true)
  in
  let inputs = [ 0; 1; 2; 3 ] in
  let tm = Tm.build inputs inputs ( = ) in
  let ind = Ptree.induced_partition cheap tm in
  Alcotest.(check bool) "covers" true ind.Ptree.disjoint_cover;
  Alcotest.(check bool) "NOT monochromatic" false ind.Ptree.monochromatic

let prop_ptree_alice_sends_all seed =
  (* the generic one-way tree computes EQ against a fixed target *)
  let bits = 4 in
  let g = Prng.create seed in
  let target = Prng.int g 16 in
  let tree =
    Ptree.alice_sends_all ~bits (fun x -> Bv.of_int bits x)
  in
  let ys =
    List.init 16 (fun y ->
        (y, fun (received : Bv.t) -> Encode.decode_int received = y))
  in
  List.for_all
    (fun x ->
      List.for_all
        (fun ((y, _) as bob) -> Ptree.eval tree x bob = (x = y))
        ys)
    [ 0; 3; 7; target; 15 ]
  && Ptree.cost tree = bits + 1

let test_ptree_eq_needs_full_cost () =
  (* For EQ on m bits, any correct tree has >= 2^m leaves that answer
     true... we verify the contrapositive on the full one-way tree:
     rectangle count equals the number of reachable transcripts and the
     Yao bound is tight-ish. *)
  let bits = 3 in
  let tree = Ptree.alice_sends_all ~bits (fun x -> Bv.of_int bits x) in
  let ys =
    List.init 8 (fun y ->
        (y, fun (received : Bv.t) -> Encode.decode_int received = y))
  in
  let xs = List.init 8 (fun x -> x) in
  let tm =
    Tm.build xs ys (fun x (y, _) -> x = y)
  in
  let ind = Ptree.induced_partition tree tm in
  Alcotest.(check bool) "yao" true (ind.Ptree.count <= 1 lsl Ptree.cost tree);
  Alcotest.(check bool) "mono" true ind.Ptree.monochromatic;
  (* at least 2^bits distinct transcripts reach distinct rectangles *)
  Alcotest.(check bool) "enough rectangles" true (ind.Ptree.count >= 1 lsl bits)

(* ------------------------------------------------------------------ *)
(* Discrepancy and one-way complexity                                  *)
(* ------------------------------------------------------------------ *)

module Disc = Commx_comm.Discrepancy

let test_discrepancy_known () =
  (* monochromatic: the whole matrix is the witness, disc = 1 *)
  let ones = Bm.init 3 3 (fun _ _ -> true) in
  Alcotest.(check (float 1e-9)) "mono" 1.0 (Disc.discrepancy_exact ones);
  (* identity 2x2: the most unbalanced rectangle is a single cell
     (any 2-cell rectangle mixes a one and a zero) *)
  let i2 = Bm.identity 2 in
  Alcotest.(check (float 1e-9)) "I2" 0.25 (Disc.discrepancy_exact i2);
  (* inner product has low discrepancy: for m = 3 it is well below EQ's *)
  let ip = Disc.inner_product_matrix ~m:3 in
  let eq = Bm.identity 8 in
  Alcotest.(check bool) "IP < EQ ones-side" true
    (Disc.discrepancy_exact ip < Disc.discrepancy_exact eq +. 1.0);
  (* the classic bound: disc(IP_m) <= 2^(-m/2); for m=3, <= 0.354 *)
  Alcotest.(check bool)
    (Printf.sprintf "IP disc %.3f small" (Disc.discrepancy_exact ip))
    true
    (Disc.discrepancy_exact ip <= 0.375)

let test_randomized_lower_bound () =
  let ip = Disc.inner_product_matrix ~m:4 in
  let lb = Disc.randomized_lower_bound ip ~epsilon:0.1 in
  Alcotest.(check bool) (Printf.sprintf "IP4 lb %.2f > 1.5" lb) true (lb > 1.5);
  (* monochromatic functions need nothing *)
  Alcotest.(check (float 1e-9)) "mono 0" 0.0
    (Disc.randomized_lower_bound (Bm.init 2 2 (fun _ _ -> true)) ~epsilon:0.1)

let test_one_way () =
  (* EQ on n values: all rows distinct -> ceil log2 n *)
  Alcotest.(check int) "EQ8" 3 (Disc.one_way_complexity (Bm.identity 8));
  Alcotest.(check int) "EQ5" 3 (Disc.one_way_complexity (Bm.identity 5));
  (* constant function: 0 *)
  Alcotest.(check int) "const" 0
    (Disc.one_way_complexity (Bm.init 4 4 (fun _ _ -> true)));
  (* two distinct rows: 1 bit *)
  let m = Bm.init 4 3 (fun i _ -> i mod 2 = 0) in
  Alcotest.(check int) "two classes" 1 (Disc.one_way_complexity m)

let prop_one_way_ge_exact params =
  (* one-way is a restriction: C_oneway >= C (two-way exact) - the
     answer-bit convention differs by at most 1 *)
  let m = mat_of params in
  Disc.one_way_complexity m + 1 >= Commx_comm.Exact_cc.complexity m - 1

let prop_discrepancy_bounds params =
  let m = mat_of params in
  let d = Disc.discrepancy_exact m in
  d >= 0.0 && d <= 1.0
  &&
  (* a single monochromatic cell always witnesses >= 1/(r*c) *)
  (Bm.rows m * Bm.cols m = 0
  || d >= 1.0 /. float_of_int (Bm.rows m * Bm.cols m) -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Covers and partitions                                               *)
(* ------------------------------------------------------------------ *)

module Cover = Commx_comm.Cover

let gen_tiny_bitmat =
  QCheck.Gen.(
    int_range 1 4 >>= fun r ->
    int_range 1 4 >>= fun c ->
    int_range 0 10000 >>= fun seed ->
    int_range 1 9 >>= fun tenths ->
    return (r, c, seed, tenths))

let arb_tiny_bitmat =
  QCheck.make
    ~print:(fun (r, c, s, t) -> Printf.sprintf "%dx%d seed=%d dens=%d" r c s t)
    gen_tiny_bitmat

let test_cover_maximal_identity () =
  (* identity 4x4: maximal 1-rectangles are the 4 diagonal cells *)
  let rects = Cover.maximal_one_rectangles (Bm.identity 4) in
  Alcotest.(check int) "count" 4 (List.length rects);
  List.iter
    (fun r -> Alcotest.(check int) "unit cells" 1 (Rect.area r))
    rects;
  (* all-ones 3x2 has exactly one maximal rectangle: everything *)
  let all = Bm.init 3 2 (fun _ _ -> true) in
  Alcotest.(check int) "all-ones" 1
    (List.length (Cover.maximal_one_rectangles all))

let test_cover_known () =
  (* identity 4x4: min 1-cover = 4 (fooling set!), min 0-cover of the
     off-diagonal: 0s of I4 can be covered by 4 rectangles
     (top-right/bottom-left split recursively) *)
  let i4 = Bm.identity 4 in
  Alcotest.(check int) "N1(EQ4)" 4 (Cover.min_one_cover i4);
  let n0 = Cover.min_zero_cover i4 in
  Alcotest.(check bool) (Printf.sprintf "N0(EQ4) = %d in [2,4]" n0) true
    (n0 >= 2 && n0 <= 4);
  (* all ones: a single rectangle *)
  Alcotest.(check int) "all ones" 1
    (Cover.min_one_cover (Bm.init 3 3 (fun _ _ -> true)));
  Alcotest.(check int) "no ones" 0 (Cover.min_one_cover (Bm.create 2 2))

let test_cover_eq3_pinned () =
  (* Hand-computed: I3's six zeros tile into exactly three 2-cell
     rectangles ({r0,r1}x{c2}, {r1,r2}x{c0}, {r0,r2}x{c1}) and the ones
     are three isolated cells, so d(EQ_3) = 6, N0 = 3, N1 = 3. *)
  let i3 = Bm.identity 3 in
  Alcotest.(check int) "d(EQ3)" 6 (Cover.min_partition i3);
  Alcotest.(check int) "N0(EQ3)" 3 (Cover.min_zero_cover i3);
  Alcotest.(check int) "N1(EQ3)" 3 (Cover.min_one_cover i3)

let test_partition_vs_covers () =
  (* d(EQ_3): identity 3x3 needs 3 one-parts and the zeros need
     several disjoint parts *)
  let i3 = Bm.identity 3 in
  let d = Cover.min_partition i3 in
  let n1 = Cover.min_one_cover i3 and n0 = Cover.min_zero_cover i3 in
  Alcotest.(check bool)
    (Printf.sprintf "d=%d >= n1+n0 = %d+%d" d n1 n0)
    true
    (d >= n1 + n0);
  (* monochromatic matrix: d = 1 *)
  Alcotest.(check int) "mono" 1 (Cover.min_partition (Bm.init 2 3 (fun _ _ -> true)))

let prop_yao_inequalities params =
  let r, c, seed, tenths = params in
  let g = Prng.create seed in
  let m = Bm.init r c (fun _ _ -> Prng.int g 10 < tenths) in
  Cover.yao_inequality_holds m

let prop_partition_ge_covers params =
  let r, c, seed, tenths = params in
  let g = Prng.create seed in
  let m = Bm.init r c (fun _ _ -> Prng.int g 10 < tenths) in
  let ones_exist = Bm.count_ones m > 0 in
  let zeros_exist = Bm.count_ones m < r * c in
  let d = Cover.min_partition m in
  (not (ones_exist && zeros_exist)) || d >= 2

(* ------------------------------------------------------------------ *)
(* Exact deterministic communication complexity                        *)
(* ------------------------------------------------------------------ *)

module Exact_cc = Commx_comm.Exact_cc

let test_exact_cc_trivial_cases () =
  (* monochromatic: 0 bits *)
  let ones = Bm.init 4 4 (fun _ _ -> true) in
  Alcotest.(check int) "all ones" 0 (Exact_cc.complexity ones);
  let zeros = Bm.create 3 5 in
  Alcotest.(check int) "all zeros" 0 (Exact_cc.complexity zeros);
  (* one row, mixed: Bob announces, 1 bit *)
  let row = Bm.init 1 4 (fun _ j -> j mod 2 = 0) in
  Alcotest.(check int) "single mixed row" 1 (Exact_cc.complexity row)

let test_exact_cc_equality () =
  (* EQ on 2-bit inputs: identity 4x4; known CC = 3 (2 bits + answer) *)
  Alcotest.(check int) "EQ 4x4" 3 (Exact_cc.complexity (Bm.identity 4));
  (* EQ on 3 values *)
  Alcotest.(check int) "EQ 3x3" 3 (Exact_cc.complexity (Bm.identity 3));
  (* EQ on 2 values: 1 bit + answer = 2 *)
  Alcotest.(check int) "EQ 2x2" 2 (Exact_cc.complexity (Bm.identity 2))

let test_exact_cc_singularity () =
  (* singularity of 2x2 one-bit matrices: the 4x4 truth matrix of E2;
     certificates force >= 3, the trivial protocol achieves 3, so the
     exact value must be 3 *)
  let inputs = List.init 4 (fun v -> (v lsr 1, v land 1)) in
  let tm =
    Commx_comm.Truth_matrix.build inputs inputs (fun (a, c) (b, d) ->
        (a * d) - (b * c) = 0)
  in
  Alcotest.(check int) "singularity 1-bit" 3 (Exact_cc.complexity_tm tm)

let test_exact_cc_gt () =
  (* GT on {0..3}: upper-triangular-complement matrix; CC(GT_m) is
     known to be log m + O(1); for 4 values the exact search should
     find 3 *)
  let m = Bm.init 4 4 (fun i j -> i > j) in
  Alcotest.(check int) "GT 4x4" 3 (Exact_cc.complexity m)

let prop_exact_cc_sandwiched params =
  let m = mat_of params in
  Exact_cc.optimal_is_sandwiched m

let prop_exact_cc_transpose params =
  (* swapping the agents cannot change the complexity *)
  let m = mat_of params in
  Exact_cc.complexity m = Exact_cc.complexity (Bm.transpose m)

let test_exact_cc_raised_cap () =
  (* The packed engine accepts boards up to 20x20 (PR 4 raised the
     seed's 12 to 16; the lower-bound portfolio raised 16 to 20).  EQ
     on m values costs ceil(log2 m) + 1 bits. *)
  Alcotest.(check int) "EQ 14x14" 5 (Exact_cc.complexity (Bm.identity 14));
  Alcotest.(check int) "EQ 16x16" 5 (Exact_cc.complexity (Bm.identity 16));
  Alcotest.(check int) "EQ 18x18" 6 (Exact_cc.complexity (Bm.identity 18));
  Alcotest.(check int) "EQ 20x20" 6 (Exact_cc.complexity (Bm.identity 20));
  let gt14 = Bm.init 14 14 (fun i j -> i > j) in
  Alcotest.(check int) "GT 14x14" 5 (Exact_cc.complexity gt14);
  let gt20 = Bm.init 20 20 (fun i j -> i > j) in
  Alcotest.(check int) "GT 20x20" 6 (Exact_cc.complexity gt20)

let test_exact_cc_too_large () =
  (* GT on 21 values survives canonicalization intact (all rows and
     columns distinct), so it must be rejected — with the offending
     POST-canonicalization dimensions in the error. *)
  let m = Bm.init 21 21 (fun i j -> i > j) in
  Alcotest.check_raises "21x21 rejected"
    (Exact_cc.Too_large { rows = 21; cols = 21; limit = 20 }) (fun () ->
      ignore (Exact_cc.complexity m));
  Alcotest.(check (pair int int))
    "canonical_dims sees what Too_large judges" (21, 21)
    (Exact_cc.canonical_dims m)

let test_exact_cc_cap_post_canonicalization () =
  (* 24x24 raw, but rows/cols repeat with period 4: canonicalizes to
     the 4x4 identity, so it must be ACCEPTED despite 24 > 20 — the
     cap applies to the canonical board, not the input.  CC is
     unchanged by duplicate-line collapse. *)
  let m = Bm.init 24 24 (fun i j -> i mod 4 = j mod 4) in
  Alcotest.(check int) "24x24 with period-4 lines" 3 (Exact_cc.complexity m);
  let _, st = Exact_cc.search m in
  Alcotest.(check int) "canonical rows" 4 st.Exact_cc.canon_rows;
  Alcotest.(check int) "canonical cols" 4 st.Exact_cc.canon_cols

(* The cache-key contract: [canonical_key] aliases exactly what the
   engine's input canonicalization folds together — duplicate lines
   and majority-ones complementation — and [canonical_dims] reports
   the shape the engine searches. *)
let key_boards ?(tenths = 4) () =
  List.init 12 (fun s ->
      let g = Prng.create (4100 + s) in
      Bm.init (2 + (s mod 7)) (3 + (s mod 5)) (fun _ _ ->
          Prng.int g 10 < tenths))

(* Append a copy of every row and every column: copies placed after
   their originals keep the order of first occurrences. *)
let with_duplicates m =
  let dup n = Array.init (2 * n) (fun k -> k mod n) in
  Bm.submatrix m (dup (Bm.rows m)) (dup (Bm.cols m))

let test_exact_cc_canonical_key_duplicates () =
  List.iter
    (fun m ->
      Alcotest.(check string) "duplicated rows and columns"
        (Exact_cc.canonical_key m)
        (Exact_cc.canonical_key (with_duplicates m)))
    (key_boards ())

let test_exact_cc_canonical_key_complement () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "mostly ones" true
        (2 * Bm.count_ones m > Bm.rows m * Bm.cols m);
      Alcotest.(check string) "complement aliases" (Exact_cc.canonical_key m)
        (Exact_cc.canonical_key (Bm.complement m)))
    (key_boards ~tenths:8 ())

let test_exact_cc_canonical_dims_agree () =
  List.iter
    (fun m ->
      let r, c = Exact_cc.canonical_dims m in
      let key = Exact_cc.canonical_key m in
      Alcotest.(check string) "key prefix" (Printf.sprintf "%dx%d:" r c)
        (String.sub key 0 (String.index key ':' + 1));
      let _, st = Exact_cc.search m in
      Alcotest.(check (pair int int)) "search canon dims" (r, c)
        (st.Exact_cc.canon_rows, st.Exact_cc.canon_cols))
    (key_boards ()
    @ List.map with_duplicates (key_boards ())
    @ List.map Bm.complement (key_boards ()))

let test_exact_cc_warm_table_deadline () =
  (* The cooperative cancel poll counts subproblem VISITS, table hits
     included — so a search that mostly replays a warm table still
     observes its deadline (the pre-fix poll only ticked on node
     expansions and a hit-dominated search could overrun its budget
     unboundedly).  Two behaviors pin the design: (1) a FULLY warmed
     table holds an exact root entry, so even a pre-fired token loses
     the race and the value returns normally with zero expansions;
     (2) against a cold table the same pre-fired token stops the
     search within one poll interval, the partial entries persist in
     the caller-owned table, and a repeat attempt resumes deeper. *)
  let g = Prng.create 9003 in
  let m = Bm.init 9 9 (fun _ _ -> Prng.float g < 0.18) in
  let expired () =
    Commx_util.Pool.Token.create ~deadline:(Commx_util.Clock.now_s () -. 1.0) ()
  in
  (* (2) cold table, pre-fired token: Timed_out, bounded work *)
  let cold = Commx_util.Txtable.create () in
  (match Exact_cc.search ~table:cold ~cancel:(expired ()) m with
  | _ -> Alcotest.fail "expected Timed_out against a cold table"
  | exception Exact_cc.Timed_out { lower; upper; nodes } ->
      Alcotest.(check bool) "bounds sane" true (0 <= lower && lower <= upper);
      Alcotest.(check bool) "stopped within a poll interval" true
        (nodes <= 2048));
  (* the resumed attempt replays memoized subproblems as table HITS —
     exactly the traffic the old expansion-only counter never polled —
     and must still observe its deadline within one interval *)
  (match Exact_cc.search ~table:cold ~cancel:(expired ()) m with
  | v, _ -> Alcotest.failf "expected Timed_out on resume, got %d" v
  | exception Exact_cc.Timed_out { nodes; _ } ->
      Alcotest.(check bool) "hit-dominated resume still stops" true
        (nodes <= 2048));
  (* (1) fully warmed table: the exact root entry wins the race *)
  let warm = Commx_util.Txtable.create () in
  let v_full, _ = Exact_cc.search ~table:warm m in
  let v_hit, st_hit = Exact_cc.search ~table:warm ~cancel:(expired ()) m in
  Alcotest.(check int) "warm value" v_full v_hit;
  Alcotest.(check int) "zero expansions against warm table" 0
    st_hit.Exact_cc.nodes

let gen_ref_bitmat =
  (* The reference engine is the raw exponential recursion — no table,
     no pruning — so its inputs stay at <= 5x5 where the full game
     tree is still cheap. *)
  QCheck.Gen.(
    int_range 1 5 >>= fun r ->
    int_range 1 5 >>= fun c ->
    int_range 0 10000 >>= fun seed ->
    int_range 1 9 >>= fun tenths ->
    return (r, c, seed, tenths))

let arb_ref_bitmat =
  QCheck.make
    ~print:(fun (r, c, s, t) -> Printf.sprintf "%dx%d seed=%d dens=%d" r c s t)
    gen_ref_bitmat

let prop_exact_cc_reference_agrees params =
  (* The fully de-optimized engine (no table, no canonicalization, no
     pruning) is the executable spec: the optimized default must
     compute the same value on every input. *)
  let m = mat_of params in
  let v_fast, _ = Exact_cc.search m in
  let v_ref, st = Exact_cc.search ~config:Exact_cc.reference_config m in
  v_fast = v_ref && st.Exact_cc.table_hits = 0

let gen_medium_bitmat =
  QCheck.Gen.(
    int_range 1 8 >>= fun r ->
    int_range 1 8 >>= fun c ->
    int_range 0 10000 >>= fun seed ->
    int_range 1 9 >>= fun tenths ->
    return (r, c, seed, tenths))

let arb_medium_bitmat =
  QCheck.make
    ~print:(fun (r, c, s, t) -> Printf.sprintf "%dx%d seed=%d dens=%d" r c s t)
    gen_medium_bitmat

let prop_exact_cc_toggle_invariance params =
  (* Each optimization toggled off individually (keeping the table so
     8x8 stays fast): the computed value never changes, only the work
     counters do. *)
  let m = mat_of params in
  let v0, _ = Exact_cc.search m in
  List.for_all
    (fun config -> fst (Exact_cc.search ~config m) = v0)
    Exact_cc.
      [ { default_config with canonicalize = false };
        { default_config with prune = false };
        { default_config with portfolio = false };
        { default_config with table_budget = Some 64 } ]

let prop_exact_cc_monotone_submatrix params =
  (* restricting to a submatrix can only decrease the complexity *)
  let m = mat_of params in
  let nr = Bm.rows m and nc = Bm.cols m in
  if nr < 2 || nc < 2 then true
  else begin
    let sub =
      Bm.submatrix m
        (Array.init (nr - 1) (fun i -> i))
        (Array.init (nc - 1) (fun j -> j))
    in
    Exact_cc.complexity sub <= Exact_cc.complexity m
  end

(* ------------------------------------------------------------------ *)
(* Rank bounds                                                         *)
(* ------------------------------------------------------------------ *)

let test_rank_bounds_identity () =
  let tm = eq_tm 16 in
  let report = Rank_bound.analyze tm ~exact_rect:true in
  Alcotest.(check int) "Q rank" 16 report.Rank_bound.rational;
  Alcotest.(check int) "GF2 rank" 16 report.Rank_bound.gf2;
  Alcotest.(check (float 1e-6)) "log rank" 4.0 report.Rank_bound.log_rank;
  Alcotest.(check int) "fooling" 16 report.Rank_bound.fooling

let test_rank_gf2_vs_q () =
  (* The 2x2 all-ones plus identity trick: matrix [[0,1],[1,0]] has
     GF(2) rank 2 and Q rank 2; a case where they differ: the 3x3
     "parity" matrix J - I over GF(2) has rank... take [[1,1],[1,1]]:
     rank 1 in both.  A genuine gap: 4x4 incidence of GF(2)-singular
     but Q-nonsingular:
     [[1,1,0],[1,0,1],[0,1,1]] is GF(2)-singular (rows sum to 0) but
     has determinant -2 over Q. *)
  let m =
    Bm.init 3 3 (fun i j ->
        List.mem (i, j) [ (0, 0); (0, 1); (1, 0); (1, 2); (2, 1); (2, 2) ])
  in
  Alcotest.(check int) "gf2" 2 (Rank_bound.gf2_rank m);
  Alcotest.(check int) "q" 3 (Rank_bound.rational_rank m)

(* Past the native limit of 22 the rank comes from bignum Bareiss:
   identity 27 plus three repeated rows, and the 64x64 wire-limit
   identity. *)
let test_rank_past_native_limit () =
  let m = Bm.init 30 30 (fun i j -> if i < 27 then i = j else j = i - 27) in
  Alcotest.(check int) "30x30 of rank 27" 27 (Rank_bound.rational_rank m);
  Alcotest.(check int) "64x64 identity" 64
    (Rank_bound.rational_rank (Bm.identity 64))

let prop_gf2_le_q params =
  let m = mat_of params in
  Rank_bound.gf2_rank m <= Rank_bound.rational_rank m

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "comm"
    [ ( "encode",
        [ Alcotest.test_case "bits_for_range" `Quick test_bits_for_range;
          Alcotest.test_case "rejects wide values" `Quick test_encode_rejects;
          qtest "int roundtrip" QCheck.(pair int int) prop_int_roundtrip;
          qtest "bigint roundtrip" QCheck.int prop_bigint_roundtrip;
          qtest "entries roundtrip" QCheck.(list int) prop_entries_roundtrip ] );
      ( "partition",
        [ Alcotest.test_case "first half" `Quick test_first_half;
          Alcotest.test_case "matrix indexing" `Quick test_matrix_indexing;
          qtest "random even is even" QCheck.small_int prop_random_even;
          qtest "complement swaps" QCheck.small_int prop_complement_swaps;
          qtest "permutation keeps evenness" QCheck.small_int
            prop_permutation_preserves_evenness ] );
      ( "protocol",
        [ Alcotest.test_case "channel counts bits" `Quick test_channel_counts;
          Alcotest.test_case "worst case rejects empty inputs" `Quick
            test_worst_case_empty_inputs;
          Alcotest.test_case "correctness checker" `Quick test_check_correct ] );
      ( "truth-matrix",
        [ Alcotest.test_case "basics" `Quick test_truth_matrix_basics;
          Alcotest.test_case "restrict" `Quick test_truth_matrix_restrict ] );
      ( "rectangle",
        [ Alcotest.test_case "known maxima" `Quick test_rect_known;
          Alcotest.test_case "size guard at 22" `Quick test_rect_size_guard;
          Alcotest.test_case "identity cover bound" `Quick
            test_cover_bound_identity;
          qtest "exact = brute force" arb_small_bitmat
            prop_exact_rect_matches_brute;
          qtest "exact rect is monochromatic" arb_small_bitmat
            prop_exact_rect_is_all_ones;
          qtest "greedy <= exact and valid" arb_small_bitmat
            prop_greedy_never_beats_exact;
          qtest "min_rows respected" arb_small_bitmat prop_min_rows_respected
        ] );
      ( "fooling",
        [ Alcotest.test_case "identity diagonal" `Quick test_fooling_identity;
          Alcotest.test_case "validity checks" `Quick test_fooling_rejects;
          Alcotest.test_case "identity embeddings" `Quick
            test_identity_embedding;
          qtest "embedding is a fooling set" ~count:100 arb_small_bitmat
            prop_identity_embedding_is_fooling;
          qtest "greedy always valid" arb_small_bitmat prop_greedy_fooling_valid
        ] );
      ( "ptree",
        [ Alcotest.test_case "eval/cost/transcript" `Quick test_ptree_eval_cost;
          Alcotest.test_case "yao structure theorem" `Quick
            test_ptree_yao_structure;
          Alcotest.test_case "cheap protocol not monochromatic" `Quick
            test_ptree_incorrect_protocol_not_mono;
          Alcotest.test_case "EQ one-way tree rectangles" `Quick
            test_ptree_eq_needs_full_cost;
          qtest "generic one-way tree" ~count:50 QCheck.small_int
            prop_ptree_alice_sends_all ] );
      ( "discrepancy",
        [ Alcotest.test_case "known values" `Quick test_discrepancy_known;
          Alcotest.test_case "randomized lower bound" `Quick
            test_randomized_lower_bound;
          Alcotest.test_case "one-way complexity" `Quick test_one_way;
          qtest "one-way >= two-way" ~count:80 arb_small_bitmat
            prop_one_way_ge_exact;
          qtest "discrepancy in [1/rc, 1]" arb_small_bitmat
            prop_discrepancy_bounds ] );
      ( "cover",
        [ Alcotest.test_case "maximal rectangles identity" `Quick
            test_cover_maximal_identity;
          Alcotest.test_case "known cover numbers" `Quick test_cover_known;
          Alcotest.test_case "EQ3 pinned exactly" `Quick test_cover_eq3_pinned;
          Alcotest.test_case "partition vs covers" `Quick
            test_partition_vs_covers;
          qtest "yao + AUY inequalities" ~count:60 arb_tiny_bitmat
            prop_yao_inequalities;
          qtest "partition >= covers" ~count:60 arb_tiny_bitmat
            prop_partition_ge_covers ] );
      ( "exact-cc",
        [ Alcotest.test_case "trivial cases" `Quick test_exact_cc_trivial_cases;
          Alcotest.test_case "equality" `Quick test_exact_cc_equality;
          Alcotest.test_case "tiny singularity = 3 bits" `Quick
            test_exact_cc_singularity;
          Alcotest.test_case "greater-than" `Quick test_exact_cc_gt;
          Alcotest.test_case "raised cap: 14x14 and 16x16" `Quick
            test_exact_cc_raised_cap;
          Alcotest.test_case "too-large structured error" `Quick
            test_exact_cc_too_large;
          Alcotest.test_case "cap checked post-canonicalization" `Quick
            test_exact_cc_cap_post_canonicalization;
          Alcotest.test_case "canonical key ignores duplicate lines" `Quick
            test_exact_cc_canonical_key_duplicates;
          Alcotest.test_case "canonical key complement-normalized" `Quick
            test_exact_cc_canonical_key_complement;
          Alcotest.test_case "canonical dims agree with key and search"
            `Quick test_exact_cc_canonical_dims_agree;
          Alcotest.test_case "warm-table deadline observed" `Quick
            test_exact_cc_warm_table_deadline;
          qtest "optimized = reference engine" ~count:120 arb_ref_bitmat
            prop_exact_cc_reference_agrees;
          qtest "toggles preserve value (8x8)" ~count:60 arb_medium_bitmat
            prop_exact_cc_toggle_invariance;
          qtest "sandwiched by bounds" ~count:100 arb_small_bitmat
            prop_exact_cc_sandwiched;
          qtest "agent-symmetric" ~count:100 arb_small_bitmat
            prop_exact_cc_transpose;
          qtest "submatrix monotone" ~count:100 arb_small_bitmat
            prop_exact_cc_monotone_submatrix ] );
      ( "rank-bound",
        [ Alcotest.test_case "identity analysis" `Quick
            test_rank_bounds_identity;
          Alcotest.test_case "GF(2) vs Q gap" `Quick test_rank_gf2_vs_q;
          Alcotest.test_case "rank past the native limit" `Quick test_rank_past_native_limit;
          qtest "gf2 <= q" arb_small_bitmat prop_gf2_le_q ] ) ]
