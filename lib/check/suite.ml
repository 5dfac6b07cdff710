module Prng = Commx_util.Prng
module Bitvec = Commx_util.Bitvec
module Bitmat = Commx_util.Bitmat
module Txtable = Commx_util.Txtable
module Json = Commx_util.Json
module Stats = Commx_util.Stats
module Telemetry = Commx_util.Telemetry
module Combi = Commx_util.Combi
module B = Commx_bigint.Bigint
module Mod = Commx_bigint.Modarith
module Zm = Commx_linalg.Zmatrix
module Exact_cc = Commx_comm.Exact_cc
module Rank_bound = Commx_comm.Rank_bound
module Fooling = Commx_comm.Fooling
module Rectangle = Commx_comm.Rectangle
module Truth_matrix = Commx_comm.Truth_matrix
module Params = Commx_core.Params
module H = Commx_core.Hard_instance
module L32 = Commx_core.Lemma32
module L35 = Commx_core.Lemma35

(* Run labelled sub-checks in order; the first failing label is the
   divergence message (the printed counterexample carries the data). *)
let all_of checks =
  List.fold_left
    (fun acc (label, f) ->
      match acc with
      | Some _ -> acc
      | None -> if f () then None else Some label)
    None checks

let show_int_pair (a, b) = Printf.sprintf "(%d, %d)" a b

let show_bigint_pair (a, b) =
  Printf.sprintf "(%s, %s)" (B.to_string a) (B.to_string b)

let show_bitmat m = Format.asprintf "%a" Bitmat.pp m

(* ------------------------------------------------------------------ *)
(* Bigint vs. native ints and algebraic laws                           *)
(* ------------------------------------------------------------------ *)

(* Operands bounded so every native-int result below is exact
   (|a*b| < 2^60). *)
let bigint_vs_native =
  let word = Gen.int_range (-(1 lsl 30)) (1 lsl 30) in
  Property.make ~name:"bigint.vs_native_ring" ~gen:(Gen.pair word word)
    ~shrink:(Shrink.pair Shrink.int Shrink.int) ~show:show_int_pair
    (fun (a, b) ->
      let ba = B.of_int a and bb = B.of_int b in
      all_of
        [
          ("to_int(of_int)", fun () -> B.to_int ba = a);
          ("add", fun () -> B.to_int (B.add ba bb) = a + b);
          ("sub", fun () -> B.to_int (B.sub ba bb) = a - b);
          ("mul", fun () -> B.to_int (B.mul ba bb) = a * b);
          ("mul_int", fun () -> B.to_int (B.mul_int ba b) = a * b);
          ("neg", fun () -> B.to_int (B.neg ba) = -a);
          ("compare", fun () -> B.compare ba bb = compare a b);
          ("div", fun () -> b = 0 || B.to_int (B.div ba bb) = a / b);
          ("rem", fun () -> b = 0 || B.to_int (B.rem ba bb) = a mod b);
        ])

let gen_bigint_sized lo hi = Gen.bigint ~bits:(Gen.int_range lo hi)

let bigint_divmod =
  let gen g =
    let a = gen_bigint_sized 0 220 g in
    let b = gen_bigint_sized 1 120 g in
    (a, (if B.is_zero b then B.one else b))
  in
  Property.make ~name:"bigint.divmod_laws" ~gen
    ~shrink:(Shrink.pair Shrink.bigint Shrink.bigint) ~show:show_bigint_pair
    (fun (a, b) ->
      if B.is_zero b then None (* a shrunk divisor may reach zero *)
      else begin
        let q, r = B.divmod a b in
        let eq, er = B.ediv_rem a b in
        all_of
          [
            ("reconstruct", fun () -> B.equal (B.add (B.mul q b) r) a);
            ("rem_range", fun () -> B.compare (B.abs r) (B.abs b) < 0);
            ("rem_sign", fun () -> B.is_zero r || B.sign r = B.sign a);
            ( "ediv_reconstruct",
              fun () -> B.equal (B.add (B.mul eq b) er) a );
            ( "erem_range",
              fun () -> B.sign er >= 0 && B.compare er (B.abs b) < 0 );
            ("div_agrees", fun () -> B.equal (B.div a b) q);
            ("rem_agrees", fun () -> B.equal (B.rem a b) r);
          ]
      end)

let bigint_string_roundtrip =
  Property.make ~name:"bigint.string_roundtrip" ~gen:(gen_bigint_sized 0 300)
    ~shrink:Shrink.bigint ~show:B.to_string (fun x ->
      all_of
        [
          ( "of_string(to_string)",
            fun () -> B.equal (B.of_string (B.to_string x)) x );
          ( "sign_of_rendering",
            fun () ->
              let s = B.to_string x in
              (B.sign x < 0) = (String.length s > 0 && s.[0] = '-') );
        ])

let bigint_karatsuba =
  let big = 31 * B.karatsuba_threshold in
  let gen = Gen.pair (gen_bigint_sized big (3 * big)) (gen_bigint_sized big (3 * big)) in
  Property.make ~name:"bigint.karatsuba_vs_schoolbook" ~gen
    ~shrink:(Shrink.pair Shrink.bigint Shrink.bigint) ~show:show_bigint_pair
    (fun (a, b) ->
      all_of
        [ ("mul", fun () -> B.equal (B.mul a b) (B.mul_schoolbook a b)) ])

(* ------------------------------------------------------------------ *)
(* Modarith.Word vs. bignum modular arithmetic                         *)
(* ------------------------------------------------------------------ *)

let gen_modulus = Gen.int_range 2 ((1 lsl 31) - 1)

let modarith_vs_bigint =
  let gen = Gen.triple gen_modulus Gen.any_int Gen.any_int in
  Property.make ~name:"modarith.word_vs_bigint" ~gen
    ~shrink:(Shrink.triple Shrink.int Shrink.int Shrink.int)
    ~show:(fun (m, a, b) -> Printf.sprintf "(m=%d, %d, %d)" m a b)
    (fun (m, a, b) ->
      if m < 2 then None (* shrinking may leave the modulus range *)
      else begin
        let mm = Mod.Word.modulus m in
        let bm = B.of_int m in
        let ra = Mod.Word.reduce mm a and rb = Mod.Word.reduce mm b in
        let via_big op = B.to_int (B.erem (op (B.of_int ra) (B.of_int rb)) bm) in
        let e = abs (b mod 8) in
        all_of
          [
            ("reduce", fun () -> ra = B.to_int (B.erem (B.of_int a) bm));
            ("reduce_big", fun () -> Mod.Word.reduce_big mm (B.of_int a) = ra);
            ("add", fun () -> Mod.Word.add mm ra rb = via_big B.add);
            ("sub", fun () -> Mod.Word.sub mm ra rb = via_big B.sub);
            ("mul", fun () -> Mod.Word.mul mm ra rb = via_big B.mul);
            ("neg", fun () -> Mod.Word.add mm ra (Mod.Word.neg mm ra) = 0);
            ( "pow",
              fun () ->
                Mod.Word.pow mm ra e
                = B.to_int (B.erem (B.pow (B.of_int ra) e) bm) );
          ]
      end)

let modarith_inv_contract =
  let gen = Gen.pair gen_modulus Gen.any_int in
  Property.make ~name:"modarith.inv_contract" ~gen
    ~shrink:(Shrink.pair Shrink.int Shrink.int) ~show:show_int_pair
    (fun (m, x) ->
      if m < 2 then None
      else begin
        let mm = Mod.Word.modulus m in
        let rx = Mod.Word.reduce mm x in
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        if gcd rx m = 1 then
          all_of
            [
              ( "x*inv(x)=1",
                fun () -> Mod.Word.mul mm rx (Mod.Word.inv mm rx) = 1 );
            ]
        else begin
          (* gcd 0 m = m >= 2, so x = 0 lands here too. *)
          match Mod.Word.inv mm rx with
          | _ -> Some "non-invertible: expected Division_by_zero"
          | exception Division_by_zero -> None
        end
      end)

(* ------------------------------------------------------------------ *)
(* Bitvec / Bitmat SWAR kernels vs. naive loops                        *)
(* ------------------------------------------------------------------ *)

let bitvec_vs_model =
  let gen g =
    let len = Prng.int g 201 in
    let v1 = Bitvec.random g len in
    let v2 = Bitvec.random g len in
    (v1, v2)
  in
  Property.make ~name:"bitvec.vs_bool_model" ~gen
    ~show:(fun (v1, v2) ->
      Printf.sprintf "(%s, %s)" (Bitvec.to_string v1) (Bitvec.to_string v2))
    (fun (v1, v2) ->
      let len = Bitvec.length v1 in
      let b1 = Oracles.bitvec_bools v1 and b2 = Oracles.bitvec_bools v2 in
      let via_model op =
        let d = Bitvec.copy v1 in
        op d v2;
        Oracles.bitvec_bools d
      in
      all_of
        [
          ( "popcount",
            fun () ->
              Bitvec.popcount v1
              = Array.fold_left (fun a b -> if b then a + 1 else a) 0 b1 );
          ( "xor",
            fun () ->
              via_model Bitvec.xor_into
              = Array.init len (fun i -> b1.(i) <> b2.(i)) );
          ( "and",
            fun () ->
              via_model Bitvec.and_into
              = Array.init len (fun i -> b1.(i) && b2.(i)) );
          ( "or",
            fun () ->
              via_model Bitvec.or_into
              = Array.init len (fun i -> b1.(i) || b2.(i)) );
          ( "string_roundtrip",
            fun () -> Bitvec.equal (Bitvec.of_string (Bitvec.to_string v1)) v1
          );
          ( "sub_append",
            fun () ->
              let h = len / 2 in
              Bitvec.equal
                (Bitvec.append (Bitvec.sub v1 0 h) (Bitvec.sub v1 h (len - h)))
                v1 );
          ( "compare_antisym",
            fun () -> Bitvec.compare v1 v2 = -Bitvec.compare v2 v1 );
          ( "hash_stable",
            fun () -> Bitvec.hash v1 = Bitvec.hash (Bitvec.copy v1) );
          ( "is_zero",
            fun () -> Bitvec.is_zero v1 = Array.for_all not b1 );
          ( "fold_set_bits",
            fun () ->
              List.rev (Bitvec.fold_set_bits (fun i acc -> i :: acc) v1 [])
              = List.filter (fun i -> b1.(i)) (List.init len Fun.id) );
        ])

let bitvec_popcount_int =
  Property.make ~name:"bitvec.popcount_int_vs_naive" ~gen:Gen.nonneg_int
    ~shrink:Shrink.int ~show:string_of_int (fun x ->
      all_of
        [
          ( "popcount_int",
            fun () -> Bitvec.popcount_int x = Oracles.popcount_int_naive x );
        ])

let gen_small_bitmat lo hi g =
  let r = Prng.int_incl g lo hi in
  let c = Prng.int_incl g lo hi in
  Bitmat.random g r c

let bitmat_kernels =
  let gen g =
    let m = gen_small_bitmat 1 10 g in
    let rmask = Prng.int g (1 lsl Bitmat.rows m) in
    let cmask = Prng.int g (1 lsl Bitmat.cols m) in
    (m, rmask, cmask)
  in
  Property.make ~name:"bitmat.kernels_vs_naive" ~gen
    ~shrink:(Shrink.triple Shrink.bitmat Shrink.int Shrink.int)
    ~show:(fun (m, rmask, cmask) ->
      Format.asprintf "rmask=%d cmask=%d@\n%a" rmask cmask Bitmat.pp m)
    (fun (m, rmask, cmask) ->
      let r = Bitmat.rows m and c = Bitmat.cols m in
      let rmask = rmask land ((1 lsl r) - 1) in
      let cmask = cmask land ((1 lsl c) - 1) in
      let pr = Bitmat.packed_rows m and pc = Bitmat.packed_cols m in
      all_of
        [
          ( "mono_rows",
            fun () ->
              Bitmat.mono_masked pr ~rmask ~cmask
              = Oracles.mono_masked_naive m ~rmask ~cmask );
          ( "mono_cols",
            fun () ->
              Bitmat.mono_masked pc ~rmask:cmask ~cmask:rmask
              = Oracles.mono_masked_naive m ~rmask ~cmask );
          ( "packed_rows",
            fun () ->
              Array.for_all Fun.id
                (Array.init r (fun i ->
                     Array.for_all Fun.id
                       (Array.init c (fun j ->
                            (pr.(i) lsr j) land 1
                            = (if Bitmat.get m i j then 1 else 0))))) );
          ( "packed_cols",
            fun () ->
              Array.for_all Fun.id
                (Array.init c (fun j ->
                     Array.for_all Fun.id
                       (Array.init r (fun i ->
                            (pc.(j) lsr i) land 1
                            = (if Bitmat.get m i j then 1 else 0))))) );
          ( "count_ones",
            fun () -> Bitmat.count_ones m = Oracles.count_ones_naive m );
          ( "rank_transpose",
            fun () -> Bitmat.rank m = Bitmat.rank (Bitmat.transpose m) );
        ])

(* The batched rank kernel must be indistinguishable from mapping the
   scalar one — including on empty boards, boards with zero columns,
   and boards too wide to pack (the per-board fallback path). *)
let show_int_array a =
  "[" ^ String.concat "; " (List.map string_of_int (Array.to_list a)) ^ "]"

let bitmat_rank_batch =
  let gen g =
    let count = Prng.int_incl g 0 8 in
    Array.init count (fun _ ->
        if Prng.int g 8 = 0 then
          Bitmat.random g (Prng.int_incl g 1 3)
            (Bitvec.bits_per_word + Prng.int_incl g 1 4)
        else gen_small_bitmat 0 10 g)
  in
  Property.make ~name:"bitmat.rank_batch_vs_scalar" ~gen
    ~show:(fun ms ->
      String.concat "\n---\n" (Array.to_list (Array.map show_bitmat ms)))
    (fun ms ->
      let batch = Bitmat.rank_batch ms in
      let scalar = Array.map Bitmat.rank ms in
      if batch = scalar then None
      else
        Some
          (Printf.sprintf "batch %s <> scalar %s" (show_int_array batch)
             (show_int_array scalar)))

(* ------------------------------------------------------------------ *)
(* Txtable vs. association model                                      *)
(* ------------------------------------------------------------------ *)

let txtable_vs_model =
  (* Keys confined to a small range so linear-probing collisions are
     the common case, not the rare one. *)
  let gen =
    Gen.array (Gen.int_range 0 300)
      (Gen.triple Gen.bool (Gen.int_range 0 63) (Gen.int_range 0 1000))
  in
  Property.make ~name:"txtable.vs_assoc_model" ~gen
    ~shrink:(Shrink.array ())
    ~show:(fun ops ->
      String.concat ";"
        (Array.to_list
           (Array.map
              (fun (s, k, v) ->
                Printf.sprintf "%s %d %d" (if s then "set" else "find") k v)
              ops)))
    (fun ops ->
      let t = Txtable.create ~initial_bits:2 () in
      let model = Oracles.Table_model.create () in
      let sets = ref 0 in
      let bad = ref None in
      Array.iteri
        (fun idx (is_set, k, v) ->
          if !bad = None then
            if is_set then begin
              Txtable.set t k v;
              Oracles.Table_model.set model k v;
              incr sets
            end
            else begin
              let got = Txtable.find t k in
              let want = Oracles.Table_model.find model k in
              if got <> want then
                bad :=
                  Some
                    (Printf.sprintf "find %d at op %d: table %d, model %d" k
                       idx got want)
            end)
        ops;
      match !bad with
      | Some _ as s -> s
      | None ->
          all_of
            [
              ( "length",
                fun () -> Txtable.length t = Oracles.Table_model.length model
              );
              ("stores", fun () -> (Txtable.stats t).Txtable.stores = !sets);
            ])

let txtable_eviction_fail_soft =
  let gen =
    Gen.array (Gen.int_range 0 400)
      (Gen.pair (Gen.int_range 0 4095) (Gen.int_range 0 1000))
  in
  Property.make ~name:"txtable.eviction_fail_soft" ~gen
    ~shrink:(Shrink.array ())
    ~show:(fun ops -> Printf.sprintf "<%d inserts>" (Array.length ops))
    (fun ops ->
      let t = Txtable.create ~budget_entries:32 ~initial_bits:3 () in
      let model = Oracles.Table_model.create () in
      Array.iter
        (fun (k, v) ->
          Txtable.set t k v;
          Oracles.Table_model.set model k v)
        ops;
      (* Fail-soft: an evicted key reads back -1, a present key must
         carry the model's (last-written) value — never a stale or
         foreign one. *)
      let bad =
        Oracles.Table_model.fold
          (fun k want acc ->
            match acc with
            | Some _ -> acc
            | None ->
                let got = Txtable.find t k in
                if got = -1 || got = want then None
                else
                  Some
                    (Printf.sprintf "key %d: table %d, model %d" k got want))
          model None
      in
      match bad with
      | Some _ as s -> s
      | None ->
          all_of
            [
              ("capacity_at_budget", fun () -> Txtable.capacity t <= 32);
              ( "length_le_capacity",
                fun () -> Txtable.length t <= Txtable.capacity t );
            ])

(* ------------------------------------------------------------------ *)
(* Exact CC: optimized search vs. reference enumerator and bounds      *)
(* ------------------------------------------------------------------ *)

let exact_cc_vs_reference =
  Property.make ~name:"exact_cc.optimized_vs_reference"
    ~gen:(gen_small_bitmat 1 5) ~shrink:Shrink.bitmat ~show:show_bitmat
    (fun m ->
      let v_opt, _ = Exact_cc.search m in
      let v_ref, _ = Exact_cc.search ~config:Exact_cc.reference_config m in
      all_of [ ("cc", fun () -> v_opt = v_ref) ])

let exact_cc_sandwiched =
  Property.make ~name:"exact_cc.bounds_sandwich" ~gen:(gen_small_bitmat 1 6)
    ~shrink:Shrink.bitmat ~show:show_bitmat (fun m ->
      all_of
        [ ("lower<=cc<=upper", fun () -> Exact_cc.optimal_is_sandwiched m) ])

let exact_cc_lb_portfolio_sound =
  (* Every member of the root lower-bound portfolio — GF(2)
     rank/fooling, rational log-rank, discrepancy — must individually
     stay at or below the exact CC: one unsound member would make the
     engine prune away optimal protocols and return wrong values while
     every ablation still agreed with itself.  Checked against the
     reference-grade exact value on boards small enough to afford it. *)
  Property.make ~name:"exact_cc.lb_portfolio_sound" ~gen:(gen_small_bitmat 1 5)
    ~shrink:Shrink.bitmat ~show:show_bitmat (fun m ->
      let cc, _ = Exact_cc.search m in
      all_of
        (List.map
           (fun (name, bound) -> (name ^ "<=cc", fun () -> bound <= cc))
           (Exact_cc.lower_bound_portfolio m)))

(* The pooled work-stealing driver must return the sequential value.
   Boards are sparse 10x10-12x12, redrawn until the canonical form
   keeps at least ten rows or columns — the size at which the root move
   list reaches the engine's parallel threshold, so the pool really
   engages whenever the root bounds leave a search to do. *)
let exact_cc_pooled_vs_sequential =
  let rec gen g =
    let n = Prng.int_incl g 10 12 in
    let m = Bitmat.init n n (fun _ _ -> Prng.int g 100 < 15) in
    let r, c = Exact_cc.canonical_dims m in
    if max r c >= 10 then m else gen g
  in
  Property.make ~name:"exact_cc.pooled_vs_sequential" ~gen
    ~shrink:Shrink.bitmat ~show:show_bitmat (fun m ->
      let v_seq, _ = Exact_cc.search m in
      let v_pool, _ =
        Commx_util.Pool.with_pool ~jobs:2 (fun pool -> Exact_cc.search ~pool m)
      in
      all_of [ ("pooled=sequential", fun () -> v_pool = v_seq) ])

(* ------------------------------------------------------------------ *)
(* Lower-bound kernels vs. ℚ elimination and the list-based members    *)
(* ------------------------------------------------------------------ *)

(* A random board with a density drawn from 0.1, 0.2, ..., 0.9. *)
let gen_dense_bitmat ~rows ~cols g =
  let r = rows g in
  let c = cols g in
  let tenths = Prng.int_incl g 1 9 in
  Bitmat.init r c (fun _ _ -> Prng.int g 10 < tenths)

(* Sylvester's 2^k x 2^k Hadamard matrix with +1 -> 1 and -1 -> 0:
   entry (i, j) is 1 iff [i land j] has even popcount. *)
let sylvester k =
  Bitmat.init (1 lsl k) (1 lsl k) (fun i j ->
      Bitvec.popcount_int (i land j) land 1 = 0)

(* [rows] of the rows and [cols] of the columns of [h], in random order
   and optionally complemented. *)
let cut_board g h ~rows ~cols =
  let rs = Prng.sample_without_replacement g rows (Bitmat.rows h) in
  let cs = Prng.sample_without_replacement g cols (Bitmat.cols h) in
  let flip = Prng.bool g in
  Bitmat.init rows cols (fun i j -> Bitmat.get h rs.(i) cs.(j) <> flip)

let rank_bound_rank_vs_rational =
  let h16 = sylvester 4 and h32 = sylvester 5 in
  (* Three families: random boards of sides 1-24, across the native
     limit of 22; the 16x16 Sylvester board and its complement with up
     to three rows deleted, whose minors reach the Hadamard bound of
     their order; and square cuts of the 32x32 board of side 23-30.
     Only the last can catch a native limit set too high: below side
     25 the first product that can wrap in 63 bits comes at the last
     elimination step that still has a row below, and a wrapped
     product is exact modulo 2^63, so the rank still comes out
     right. *)
  let gen g =
    match Prng.int g 4 with
    | 0 -> cut_board g h16 ~rows:(16 - Prng.int g 4) ~cols:16
    | 1 ->
        let n = Prng.int_incl g 23 30 in
        cut_board g h32 ~rows:n ~cols:n
    | _ ->
        let side = Gen.int_range 1 24 in
        gen_dense_bitmat ~rows:side ~cols:side g
  in
  Property.make ~name:"rank_bound.rank_vs_rational" ~gen ~shrink:Shrink.bitmat
    ~show:show_bitmat (fun m ->
      let q =
        Commx_linalg.Qmatrix.init (Bitmat.rows m) (Bitmat.cols m) (fun i j ->
            if Bitmat.get m i j then Commx_bigint.Rational.one
            else Commx_bigint.Rational.zero)
      in
      let got = Rank_bound.rational_rank m
      and want = Commx_linalg.Qmatrix.rank q in
      if got = want then None
      else Some (Printf.sprintf "rational_rank %d, elimination over Q %d" got want))

let show_pairs ps =
  String.concat " " (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) ps)

(* Both fooling-set searches against the list-based reference: the
   same pair list, and the same number of PRNG draws, seen as equal
   generator states afterwards (SplitMix64 advances its state by one
   fixed increment per draw). *)
let fooling_kernel_vs_reference =
  let gen g =
    let side = Gen.int_range 0 12 in
    let m = gen_dense_bitmat ~rows:side ~cols:side g in
    (m, Prng.int g 25, Prng.int g 1_000_000)
  in
  Property.make ~name:"fooling.kernel_vs_reference" ~gen
    ~show:(fun (m, restarts, seed) ->
      Printf.sprintf "restarts %d seed %d\n%s" restarts seed (show_bitmat m))
    (fun (m, restarts, seed) ->
      let tm =
        Truth_matrix.build
          (List.init (Bitmat.rows m) Fun.id)
          (List.init (Bitmat.cols m) Fun.id)
          (Bitmat.get m)
      in
      let g1 = Prng.create seed and g2 = Prng.create seed in
      let got = Fooling.greedy_randomized g1 ~restarts tm in
      let want = Oracles.fooling_greedy_randomized g2 ~restarts tm in
      let det = Fooling.greedy tm and det_want = Oracles.fooling_greedy tm in
      if det <> det_want then
        Some
          (Printf.sprintf "greedy [%s], reference [%s]" (show_pairs det)
             (show_pairs det_want))
      else if got <> want then
        Some
          (Printf.sprintf "greedy_randomized [%s], reference [%s]"
             (show_pairs got) (show_pairs want))
      else if Prng.bits64 g1 <> Prng.bits64 g2 then
        Some "greedy_randomized made a different number of PRNG draws"
      else None)

(* The exact rectangle searches and the exact cover bound against the
   [Combi.iter_subsets] reference, on boards with one side of 1-12 and
   the other of 1-70 (two words per line), either way round.  A
   [min_rows] above 1 forbids the transpose, so the rows are
   enumerated; a tall board then has at most 12 rows or more than 22,
   where both sides raise (the reference cannot enumerate 21 or 22
   lines).  Raising counts as an answer: both sides must raise the
   same message. *)
let rectangle_kernel_vs_reference =
  let gen g =
    let short = Gen.int_range 1 12 in
    let min_rows = Prng.int_incl g 1 3 in
    let m =
      if Prng.bool g then
        gen_dense_bitmat ~rows:short ~cols:(Gen.int_range 1 70) g
      else
        let long =
          if min_rows = 1 then Gen.int_range 1 70
          else if Prng.bool g then short
          else Gen.int_range 23 70
        in
        gen_dense_bitmat ~rows:long ~cols:short g
    in
    (m, min_rows)
  in
  let outcome f =
    match f () with
    | r -> Ok (r.Rectangle.row_set, r.Rectangle.col_set)
    | exception Invalid_argument msg -> Error msg
  in
  let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  Property.make ~name:"rectangle.kernel_vs_reference" ~gen
    ~show:(fun (m, min_rows) ->
      Printf.sprintf "min_rows %d\n%s" min_rows (show_bitmat m))
    (fun (m, min_rows) ->
      let zeros = Bitmat.complement m in
      all_of
        [ ( "max_one",
            fun () ->
              outcome (fun () -> Rectangle.max_one_rectangle_exact ~min_rows m)
              = outcome (fun () -> Oracles.max_one_rectangle_exact ~min_rows m) );
          ( "max_one_default",
            fun () ->
              outcome (fun () -> Rectangle.max_one_rectangle_exact m)
              = outcome (fun () -> Oracles.max_one_rectangle_exact m) );
          ( "max_zero",
            fun () ->
              outcome (fun () -> Rectangle.max_zero_rectangle_exact ~min_rows m)
              = outcome (fun () ->
                    Oracles.max_one_rectangle_exact ~min_rows zeros) );
          ( "cover_bits",
            fun () ->
              same_float
                (Rectangle.cover_lower_bound m ~exact:true)
                (Oracles.cover_lower_bound_exact m) ) ])

(* ------------------------------------------------------------------ *)
(* Zmatrix determinants vs. cofactor expansion                         *)
(* ------------------------------------------------------------------ *)

let show_zmatrix m =
  String.concat "\n"
    (List.init (Zm.rows m) (fun i ->
         String.concat " "
           (List.init (Zm.cols m) (fun j -> B.to_string (Zm.get m i j)))))

let zmatrix_det_agreement =
  let gen g =
    let n = Prng.int_incl g 1 4 in
    Gen.zmatrix ~rows:(Gen.return n) ~cols:(Gen.return n)
      ~bits:(Gen.int_range 0 64) g
  in
  Property.make ~name:"zmatrix.det_vs_cofactor" ~gen ~show:show_zmatrix
    (fun m ->
      let d = Zm.det_bareiss m in
      all_of
        [
          ("crt", fun () -> B.equal (Zm.det_crt m) d);
          ("cofactor", fun () -> B.equal (Oracles.det_cofactor m) d);
          ( "rank_full_iff_nonsingular",
            fun () -> (Zm.rank m = Zm.rows m) = not (B.is_zero d) );
          ( "hadamard",
            fun () -> B.compare (B.abs d) (Zm.hadamard_bound m) <= 0 );
          ( "transpose",
            fun () -> B.equal (Zm.det_bareiss (Zm.transpose m)) d );
          ( "det_mod_p",
            fun () ->
              let p = (1 lsl 30) - 35 in
              (* 2^30 - 35 is prime *)
              let mm = Mod.Word.modulus p in
              Zm.det_mod_p m p = Mod.Word.reduce_big mm d );
        ])

(* Batched singularity must agree with the scalar Bareiss verdict on a
   mix that forces both of its paths: random matrices (the mod-p
   filter certifies nonsingular) and rank-deficient constructions (the
   filter vanishes mod every prime and escalates to the exact det). *)
let zmatrix_singular_batch =
  let gen g =
    let count = Prng.int_incl g 0 6 in
    Array.init count (fun _ ->
        let n = Prng.int_incl g 1 5 in
        match Prng.int g 3 with
        | 0 -> Zm.random_of_rank g ~rows:n ~cols:n ~rank:(Prng.int g n)
        | 1 -> Zm.random_of_rank g ~rows:n ~cols:n ~rank:n
        | _ -> Zm.random g ~rows:n ~cols:n ~bits:(Prng.int_incl g 1 40))
  in
  Property.make ~name:"zmatrix.singular_batch_vs_scalar" ~gen
    ~show:(fun ms ->
      String.concat "\n---\n" (Array.to_list (Array.map show_zmatrix ms)))
    (fun ms ->
      let batch = Zm.singular_batch ms in
      let scalar = Array.map Zm.is_singular ms in
      if batch = scalar then None
      else
        Some
          (Printf.sprintf "batch verdicts [%s] <> scalar [%s]"
             (String.concat ";"
                (List.map string_of_bool (Array.to_list batch)))
             (String.concat ";"
                (List.map string_of_bool (Array.to_list scalar)))))

(* One fraction-free elimination gives both rank and det, so the
   det-vs-rank check above is circular; this one holds the rank to
   elimination over Q and the det to cofactor expansion.  Rectangular
   shapes, every rank from 0 to full, and random signed boards. *)
let zmatrix_rank_vs_rational =
  let gen g =
    let rows = Prng.int_incl g 1 6 and cols = Prng.int_incl g 1 6 in
    if Prng.bool g then
      Zm.random_of_rank g ~rows ~cols ~rank:(Prng.int_incl g 0 (min rows cols))
    else Zm.random g ~rows ~cols ~bits:(Prng.int_incl g 1 40)
  in
  Property.make ~name:"zmatrix.rank_vs_rational" ~gen ~show:show_zmatrix
    (fun m ->
      let rank, det = Zm.det_rank m in
      all_of
        [ ( "rational_rank",
            fun () -> rank = Commx_linalg.Qmatrix.rank (Zm.to_qmatrix m) );
          ( "det_cofactor",
            fun () ->
              (not (Zm.is_square m)) || B.equal det (Oracles.det_cofactor m) )
        ])

(* ------------------------------------------------------------------ *)
(* Lemma 3.2 criterion vs. direct determinant on Fig. 1/3 instances    *)
(* ------------------------------------------------------------------ *)

let lemma32_vs_determinant =
  let gen g =
    let p = Gen.small_params g in
    (p, Gen.hard_free p g)
  in
  Property.make ~name:"lemma32.criterion_vs_determinant" ~gen
    ~show:(fun (p, _) -> Format.asprintf "%a" Params.pp p)
    (fun (p, f) ->
      all_of
        [
          ("criterion_agrees_random", fun () -> L32.agrees p f);
          ( "completion_singular",
            fun () ->
              (* Lemma 3.5(a): completing (C, E) must yield a witness
                 that checks, a singular M by direct CRT determinant,
                 and a true Lemma 3.2 criterion. *)
              let w = L35.complete p ~c:f.H.c ~e:f.H.e in
              L35.check_witness p w
              && B.is_zero (Zm.det_crt (H.build_m p w.L35.free))
              && L32.criterion p w.L35.free );
        ])

(* ------------------------------------------------------------------ *)
(* Json round-trip, Stats percentiles, Combi.power                     *)
(* ------------------------------------------------------------------ *)

let rec json_eq a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y ->
      (Float.is_nan x && Float.is_nan y) || x = y
  | Json.String x, Json.String y -> x = y
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_eq v1 v2)
           xs ys
  | _ -> false

let gen_json =
  let string_ = Gen.byte_string (Gen.int_range 0 12) in
  let leaf g =
    match Prng.int g 6 with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Prng.bool g)
    | 2 -> Json.Int (Gen.any_int g)
    | 3 | 4 ->
        let f =
          match Prng.int g 8 with
          | 0 -> Float.nan
          | 1 -> Float.infinity
          | 2 -> Float.neg_infinity
          | 3 -> 0.0
          | 4 -> -0.0
          | _ -> ldexp ((Prng.float g *. 2.0) -. 1.0) (Prng.int_incl g (-30) 30)
        in
        Json.Float f
    | _ -> Json.String (string_ g)
  in
  let rec value depth g =
    if depth = 0 then leaf g
    else begin
      match Prng.int g 4 with
      | 0 | 1 -> leaf g
      | 2 ->
          let n = Prng.int g 4 in
          Json.List (List.map (fun _ -> value (depth - 1) g) (List.init n Fun.id))
      | _ ->
          let n = Prng.int g 4 in
          Json.Obj
            (List.map
               (fun _ ->
                 let k = string_ g in
                 (k, value (depth - 1) g))
               (List.init n Fun.id))
    end
  in
  value 3

let json_roundtrip =
  Property.make ~name:"json.roundtrip" ~gen:gen_json ~show:Json.to_string
    (fun v ->
      all_of
        [
          ( "compact",
            fun () -> json_eq (Json.of_string (Json.to_string v)) v );
          ( "pretty",
            fun () -> json_eq (Json.of_string (Json.to_string_pretty v)) v );
        ])

let stats_percentiles =
  let gen =
    Gen.map
      (Array.map float_of_int)
      (Gen.array (Gen.int_range 1 40) (Gen.int_range (-50) 50))
  in
  Property.make ~name:"stats.percentile_median" ~gen
    ~shrink:(Shrink.array ~elt:Shrink.nothing ())
    ~show:(fun xs ->
      String.concat " " (Array.to_list (Array.map string_of_float xs)))
    (fun xs ->
      let n = Array.length xs in
      if n = 0 then None (* shrinking may empty the sample *)
      else begin
        let s = Array.copy xs in
        Array.sort Float.compare s;
        let rec mono = function
          | a :: (b :: _ as tl) -> a <= b && mono tl
          | _ -> true
        in
        all_of
          [
            ("p0_is_min", fun () -> Stats.percentile xs 0.0 = s.(0));
            ("p100_is_max", fun () -> Stats.percentile xs 100.0 = s.(n - 1));
            ( "median_is_middle",
              fun () ->
                let expected =
                  if n mod 2 = 1 then s.(n / 2)
                  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
                in
                Stats.median xs = expected
                && Stats.percentile xs 50.0 = expected );
            ( "monotone_in_p",
              fun () ->
                mono
                  (List.map (Stats.percentile xs)
                     [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ]) );
            ("variance_nonneg", fun () -> Stats.variance xs >= 0.0);
            ("singleton_variance", fun () -> n <> 1 || Stats.variance xs = 0.0);
          ]
      end)

(* The daemon's latency histogram against the exact order statistic:
   the quantile estimate is the upper bound of the bucket holding the
   nearest-rank value [x], clamped into [min, max], so it must lie in
   [x, min(max, 1.125 x)].  Samples span 1 us to 10 s, a decade drawn
   per value, so every bucket scale is exercised. *)
let telemetry_quantile_error =
  let value =
    Gen.bind (Gen.int_range 0 7) (fun e ->
        Gen.int_range 1 (int_of_float (10.0 ** float_of_int e)))
  in
  Property.make ~name:"telemetry.quantile_error"
    ~gen:(Gen.array (Gen.int_range 1 2000) value)
    ~shrink:(Shrink.array ~elt:Shrink.int ()) ~show:show_int_array
    (fun xs ->
      let n = Array.length xs in
      (* shrinking may empty the sample or push a value below 1 *)
      if n = 0 || Array.exists (fun v -> v < 1) xs then None
      else begin
        let s = Telemetry.summarize (Array.to_list xs) in
        let sorted = Array.copy xs in
        Array.sort compare sorted;
        List.find_map
          (fun p ->
            let target = Float.ceil (p /. 100.0 *. float_of_int n) in
            let r = max 1 (min n (int_of_float target)) in
            let x = float_of_int sorted.(r - 1) in
            let hi = Float.min (float_of_int s.Telemetry.max) (1.125 *. x) in
            let q = Telemetry.summary_quantile s p in
            if x <= q && q <= hi then None
            else
              Some
                (Printf.sprintf "p%g: estimate %g outside [%g, %g]" p q x hi))
          [ 0.0; 50.0; 95.0; 99.0; 100.0 ]
      end)

let combi_power_vs_bigint =
  let base =
    Gen.oneof
      [|
        Gen.int_range (-50) 50;
        Gen.map
          (fun i -> [| 2; -2; 3; -3; -4; (1 lsl 31) - 1; -((1 lsl 31) - 1) |].(i))
          (Gen.int_range 0 6);
      |]
  in
  Property.make ~name:"combi.power_vs_bigint"
    ~gen:(Gen.pair base (Gen.int_range 0 70))
    ~shrink:(Shrink.pair Shrink.int Shrink.int) ~show:show_int_pair
    (fun (b, e) ->
      if e < 0 then None
      else begin
        let truth = B.pow (B.of_int b) e in
        match Combi.power b e with
        | v ->
            if B.fits_int truth && B.to_int truth = v then None
            else if B.fits_int truth then
              Some (Printf.sprintf "wrong value: %d" v)
            else Some (Printf.sprintf "missed overflow: returned %d" v)
        | exception Failure _ ->
            if B.fits_int truth then Some "spurious overflow" else None
      end)

let all () =
  [
    bigint_vs_native;
    bigint_divmod;
    bigint_string_roundtrip;
    bigint_karatsuba;
    modarith_vs_bigint;
    modarith_inv_contract;
    bitvec_vs_model;
    bitvec_popcount_int;
    bitmat_kernels;
    bitmat_rank_batch;
    txtable_vs_model;
    txtable_eviction_fail_soft;
    exact_cc_vs_reference;
    exact_cc_sandwiched;
    exact_cc_lb_portfolio_sound;
    exact_cc_pooled_vs_sequential;
    rank_bound_rank_vs_rational;
    fooling_kernel_vs_reference;
    rectangle_kernel_vs_reference;
    zmatrix_det_agreement;
    zmatrix_singular_batch;
    zmatrix_rank_vs_rational;
    lemma32_vs_determinant;
    json_roundtrip;
    stats_percentiles;
    telemetry_quantile_error;
    combi_power_vs_bigint;
  ]
