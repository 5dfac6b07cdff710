(* Bechamel micro-benchmarks for the substrate ablations called out in
   DESIGN.md section 6:

   B1  bigint multiplication: schoolbook vs Karatsuba across sizes
   B2  determinant: Bareiss vs CRT vs rational elimination
   B3  rank: GF(2) bit-matrix vs rational elimination vs
       [Rank_bound.rational_rank] (native-int Bareiss up to side 22,
       bignum Bareiss past it)
   B4  protocol channel overhead (send throughput)
   B5  base-(-q) digit extraction
   B6  subspace membership (the Lemma 3.2 inner loop)
   B7  exact-CC engine ablations: transposition table /
       canonicalization / pruning toggled off one at a time
       (wall-clock + search counters, not Bechamel — a single
       search is the unit of work)

   [run] returns every measurement as JSON rows so the harness can
   write a BENCH_micro.json artifact (bench/main.ml). *)

open Bechamel
open Toolkit

module B = Commx_bigint.Bigint
module Zm = Commx_linalg.Zmatrix
module Qm = Commx_linalg.Qmatrix
module Bm = Commx_util.Bitmat
module Prng = Commx_util.Prng

let random_bigint g bits = B.random_bits g bits

let b1_mul () =
  let g = Prng.create 1 in
  let mk bits =
    let x = random_bigint g bits and y = random_bigint g bits in
    [
      Test.make
        ~name:(Printf.sprintf "mul-karatsuba-%db" bits)
        (Staged.stage (fun () -> ignore (B.mul x y)));
      Test.make
        ~name:(Printf.sprintf "mul-schoolbook-%db" bits)
        (Staged.stage (fun () -> ignore (B.mul_schoolbook x y)));
    ]
  in
  Test.make_grouped ~name:"B1-bigint-mul" ~fmt:"%s %s"
    (List.concat_map mk [ 256; 1024; 4096; 16384 ])

let random_zmatrix g dim bits =
  Zm.init dim dim (fun _ _ ->
      let v = B.random_bits g bits in
      if Prng.bool g then B.neg v else v)

let b2_det () =
  let g = Prng.create 2 in
  let mk dim =
    let m = random_zmatrix g dim 16 in
    let mq = Zm.to_qmatrix m in
    [
      Test.make
        ~name:(Printf.sprintf "det-bareiss-%d" dim)
        (Staged.stage (fun () -> ignore (Zm.det_bareiss m)));
      Test.make
        ~name:(Printf.sprintf "det-crt-%d" dim)
        (Staged.stage (fun () -> ignore (Zm.det_crt m)));
      Test.make
        ~name:(Printf.sprintf "det-rational-%d" dim)
        (Staged.stage (fun () -> ignore (Qm.det mq)));
    ]
  in
  Test.make_grouped ~name:"B2-determinant" ~fmt:"%s %s"
    (List.concat_map mk [ 6; 10; 14 ])

let b3_rank () =
  let g = Prng.create 3 in
  let mk dim =
    let bm = Bm.random g dim dim in
    let qm =
      Qm.init dim dim (fun i j ->
          if Bm.get bm i j then Commx_bigint.Rational.one
          else Commx_bigint.Rational.zero)
    in
    [
      Test.make
        ~name:(Printf.sprintf "rank-gf2-%d" dim)
        (Staged.stage (fun () -> ignore (Bm.rank bm)));
      Test.make
        ~name:(Printf.sprintf "rank-rational-%d" dim)
        (Staged.stage (fun () -> ignore (Qm.rank qm)));
      Test.make
        ~name:(Printf.sprintf "rank-bitmat-%d" dim)
        (Staged.stage (fun () ->
             ignore (Commx_comm.Rank_bound.rational_rank bm)));
    ]
  in
  Test.make_grouped ~name:"B3-rank" ~fmt:"%s %s"
    (List.concat_map mk [ 20; 32; 64; 128 ])

let b4_channel () =
  let g = Prng.create 4 in
  let msg = Commx_util.Bitvec.random g 4096 in
  Test.make_grouped ~name:"B4-channel" ~fmt:"%s %s"
    [
      Test.make ~name:"send-4096b"
        (Staged.stage (fun () ->
             let p =
               {
                 Commx_comm.Protocol.name = "bench";
                 run =
                   (fun ch () () ->
                     ignore (Commx_comm.Protocol.send ch msg);
                     true);
               }
             in
             ignore (Commx_comm.Protocol.execute p () ())));
    ]

let b5_negbase () =
  let q = B.of_int 7 in
  let v = B.of_string "123456789123456789123456789" in
  Test.make_grouped ~name:"B5-negbase" ~fmt:"%s %s"
    [
      Test.make ~name:"to_neg_base-90digits"
        (Staged.stage (fun () ->
             ignore (Commx_core.Gadget.to_neg_base ~q ~digits:90 v)));
    ]

let b6_membership () =
  let p = Commx_core.Params.make ~n:9 ~k:3 in
  let g = Prng.create 6 in
  let f = Commx_core.Hard_instance.random_free g p in
  let normal = Commx_core.Truth_restricted.normal_vector p f.Commx_core.Hard_instance.c in
  Test.make_grouped ~name:"B6-membership" ~fmt:"%s %s"
    [
      Test.make ~name:"lemma32-subspace-mem"
        (Staged.stage (fun () ->
             ignore (Commx_core.Lemma32.criterion p f)));
      Test.make ~name:"lemma32-normal-dot"
        (Staged.stage (fun () ->
             ignore (Commx_core.Truth_restricted.singular_with ~normal p f)));
    ]

let run_group test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some [ est ] -> est
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows

module Json = Commx_util.Json

let report_group ~group title test =
  Printf.printf "\n== %s ==\n" title;
  let tab =
    Commx_util.Tab.make ~header:[ "benchmark"; "ns/run" ]
      [ Commx_util.Tab.Left; Commx_util.Tab.Right ]
  in
  let rows =
    List.map
      (fun (name, ns) ->
        Commx_util.Tab.add_row tab
          [ name; Commx_util.Tab.fmt_float ~digits:1 ns ];
        Json.Obj
          [ ("group", Json.String group); ("bench", Json.String name);
            ("ns_per_run", Json.Float ns) ])
      (run_group test)
  in
  Commx_util.Tab.print tab;
  rows

(* Time [reps] whole runs of [f]: the best wall and the last result. *)
let best_of reps f =
  let best = ref infinity and last = ref None in
  for _ = 1 to reps do
    let t0 = Commx_util.Clock.now_s () in
    let r = f () in
    best := Float.min !best (Commx_util.Clock.now_s () -. t0);
    last := Some r
  done;
  (!best, Option.get !last)

(* Exact-CC variants change how fast a search converges, never what it
   computes: every row must carry the same value. *)
let require_one_value group rows =
  let values =
    List.filter_map
      (function Json.Obj kvs -> List.assoc_opt "value" kvs | _ -> None)
      rows
  in
  match values with
  | v :: rest when List.for_all (( = ) v) rest -> rows
  | _ -> failwith (group ^ ": variants disagree on the exact CC value")

(* B7: the exact-CC engine's three optimizations toggled off one at a
   time, plus a deliberately starved table to exercise the eviction
   path.  A single searching instance is the unit of work (a 9x9
   density-0.18 matrix whose certified root bounds do NOT meet, so the
   game tree is actually explored — most random instances are decided
   by bounds alone and would measure nothing).  Bechamel is the wrong
   harness here: one search takes 0.1-3 s depending on the config, so
   we time a few whole runs and keep the best. *)
let b7_exact_cc () =
  let module E = Commx_comm.Exact_cc in
  let g = Prng.create 9003 in
  let m = Bm.init 9 9 (fun _ _ -> Prng.float g < 0.18) in
  let cfg ~table ~canonicalize ~prune ?(portfolio = true) ?table_budget () =
    { E.table; canonicalize; prune; portfolio; table_budget }
  in
  let variants =
    [ ("full", E.default_config, 5);
      ("no-table", cfg ~table:false ~canonicalize:true ~prune:true (), 1);
      ("no-canon", cfg ~table:true ~canonicalize:false ~prune:true (), 3);
      ("no-prune", cfg ~table:true ~canonicalize:true ~prune:false (), 3);
      ( "table-budget-4k",
        cfg ~table:true ~canonicalize:true ~prune:true ~table_budget:4096 (),
        3 ) ]
  in
  Printf.printf "\n== B7 exact-CC engine ablations (9x9 search, best of k) ==\n";
  let tab =
    Commx_util.Tab.make
      ~header:[ "config"; "wall s"; "cc"; "nodes"; "tbl hits"; "evictions" ]
      Commx_util.Tab.[ Left; Right; Right; Right; Right; Right ]
  in
  let rows =
    List.map
      (fun (name, config, reps) ->
        let wall, (v, st) = best_of reps (fun () -> E.search ~config m) in
        Commx_util.Tab.add_row tab
          [ name;
            Commx_util.Tab.fmt_float ~digits:4 wall;
            string_of_int v;
            string_of_int st.E.nodes;
            string_of_int st.E.table_hits;
            string_of_int st.E.table_evictions ];
        Json.Obj
          [ ("group", Json.String "B7"); ("bench", Json.String ("exact-cc/" ^ name));
            ("wall_s", Json.Float wall); ("value", Json.Int v);
            ("nodes", Json.Int st.E.nodes);
            ("table_hits", Json.Int st.E.table_hits);
            ("table_misses", Json.Int st.E.table_misses);
            ("table_evictions", Json.Int st.E.table_evictions) ])
      variants
  in
  Commx_util.Tab.print tab;
  require_one_value "B7" rows

(* B7-pool: the pooled work-stealing driver against the sequential
   search it exists to speed up.  The board is a 12x12 GF(2) rank-5
   product (inner products of random 5-bit vectors) whose canonical
   9x10 form has 766 root moves — enough to spread over every worker
   deque — and whose exact CC equals its trivial upper bound, so the
   search is pure exhaustion: no lucky witness ends a run early and
   wall-clock is stable enough to gate.  The sequential row's node
   count is jobs-invariant and emitted as [nodes]; pooled counts
   depend on scheduling, so those rows emit [steal_nodes].  The perf
   gate checks the relational claim: steal-portfolio must beat
   seq-portfolio on wall-clock, so every row is timed best of 3.  The
   job count is capped at the machine's recommended domain count —
   more domains than cores would measure oversubscription, not
   speed-up. *)
let b7_pool_ablation () =
  let module E = Commx_comm.Exact_cc in
  let module Pool = Commx_util.Pool in
  let jobs = min 4 (Domain.recommended_domain_count ()) in
  let m =
    let g = Prng.create 50035 in
    let k = 5 and n = 12 in
    let a = Array.init n (fun _ -> Prng.int g (1 lsl k)) in
    let b = Array.init n (fun _ -> Prng.int g (1 lsl k)) in
    Bm.init n n (fun i j ->
        let rec parity x acc =
          if x = 0 then acc else parity (x lsr 1) (acc lxor (x land 1))
        in
        parity (a.(i) land b.(j)) 0 = 1)
  in
  let variants =
    [ ("seq-portfolio", false, E.default_config);
      ( "pool-steal-no-portfolio", true,
        { E.default_config with portfolio = false } );
      ("pool-steal-portfolio", true, E.default_config) ]
  in
  Printf.printf
    "\n== B7 pooled exact-CC driver (12x12 rank-5 product, jobs=%d) ==\n" jobs;
  let tab =
    Commx_util.Tab.make
      ~header:[ "driver"; "wall s"; "cc"; "nodes" ]
      Commx_util.Tab.[ Left; Right; Right; Right ]
  in
  let rows =
    Pool.with_pool ~jobs (fun pool ->
        (* Three rounds, each running every variant once: a drift in
           machine speed hits every row alike. *)
        let rounds =
          List.init 3 (fun _ ->
              List.map
                (fun (_, pooled, config) ->
                  let pool = if pooled then Some pool else None in
                  best_of 1 (fun () -> E.search ~config ?pool m))
                variants)
        in
        List.mapi
          (fun i (name, pooled, _) ->
            let runs = List.map (fun round -> List.nth round i) rounds in
            let wall =
              List.fold_left (fun b (w, _) -> Float.min b w) infinity runs
            in
            let v, st = snd (List.hd runs) in
            let nodes_key = if pooled then "steal_nodes" else "nodes" in
            Commx_util.Tab.add_row tab
              [ name;
                Commx_util.Tab.fmt_float ~digits:4 wall;
                string_of_int v;
                string_of_int st.E.nodes ];
            Json.Obj
              [ ("group", Json.String "B7");
                ("bench", Json.String ("exact-cc/" ^ name));
                ("wall_s", Json.Float wall); ("value", Json.Int v);
                (nodes_key, Json.Int st.E.nodes); ("jobs", Json.Int jobs) ])
          variants)
  in
  Commx_util.Tab.print tab;
  require_one_value "B7-pool" rows

(* B8: the observability plane's promise is "cheap when off" — every
   telemetry entry point on the exact-CC hot path (the per-search
   counters inside the engine plus the per-request histogram observe
   the serve daemon adds) must cost a load and a branch at Off.  Same
   unit of work as B7 (one whole 9x9 search, best of k); the row pair
   documents the Off-vs-Metrics delta, which should be noise. *)
let b8_telemetry_overhead () =
  let module E = Commx_comm.Exact_cc in
  let module Tel = Commx_util.Telemetry in
  let g = Prng.create 9003 in
  let m = Bm.init 9 9 (fun _ _ -> Prng.float g < 0.18) in
  let reps = 3 in
  let lat = Tel.histogram "bench.op_us" in
  let measure level =
    let prev = Tel.level () in
    Tel.set_level level;
    let r =
      best_of reps (fun () ->
          let t0 = Commx_util.Clock.now_s () in
          let _, st = E.search m in
          (* the serve daemon's per-request accounting *)
          Tel.observe lat
            (int_of_float ((Commx_util.Clock.now_s () -. t0) *. 1e6));
          st.E.nodes)
    in
    Tel.set_level prev;
    r
  in
  Printf.printf
    "\n== B8 telemetry overhead on the exact-CC hot path (9x9, best of %d) ==\n"
    reps;
  let off, off_nodes = measure Tel.Off in
  let on, on_nodes = measure Tel.Metrics in
  let overhead_pct = (on -. off) /. off *. 100.0 in
  let tab =
    Commx_util.Tab.make
      ~header:[ "level"; "wall s"; "nodes"; "overhead %" ]
      Commx_util.Tab.[ Left; Right; Right; Right ]
  in
  Commx_util.Tab.add_row tab
    [ "off"; Commx_util.Tab.fmt_float ~digits:4 off; string_of_int off_nodes;
      "-" ];
  Commx_util.Tab.add_row tab
    [ "metrics"; Commx_util.Tab.fmt_float ~digits:4 on;
      string_of_int on_nodes;
      Commx_util.Tab.fmt_float ~digits:1 overhead_pct ];
  Commx_util.Tab.print tab;
  if off_nodes <> on_nodes then
    failwith "B8: telemetry level changed the search";
  [ Json.Obj
      [ ("group", Json.String "B8");
        ("bench", Json.String "exact-cc/telemetry-off");
        ("wall_s", Json.Float off); ("nodes", Json.Int off_nodes) ];
    Json.Obj
      [ ("group", Json.String "B8");
        ("bench", Json.String "exact-cc/telemetry-metrics");
        ("wall_s", Json.Float on); ("nodes", Json.Int on_nodes);
        ("overhead_pct", Json.Float overhead_pct) ] ]

let run () =
  print_endline "Micro-benchmarks (Bechamel; OLS ns/run estimates)";
  (* OCaml evaluates list elements right-to-left; sequence explicitly
     so the groups print (and run) in B1..B7 order. *)
  let b1 =
    report_group ~group:"B1" "B1 bigint multiplication (Karatsuba ablation)"
      (b1_mul ())
  in
  let b2 = report_group ~group:"B2" "B2 determinant algorithms" (b2_det ()) in
  let b3 = report_group ~group:"B3" "B3 rank over GF(2) vs Q vs native Bareiss" (b3_rank ()) in
  let b4 = report_group ~group:"B4" "B4 protocol channel overhead" (b4_channel ()) in
  let b5 = report_group ~group:"B5" "B5 base-(-q) digits" (b5_negbase ()) in
  let b6 =
    report_group ~group:"B6" "B6 Lemma 3.2 membership strategies"
      (b6_membership ())
  in
  let b7 = b7_exact_cc () in
  let b7p = b7_pool_ablation () in
  let b8 = b8_telemetry_overhead () in
  List.concat [ b1; b2; b3; b4; b5; b6; b7; b7p; b8 ]
