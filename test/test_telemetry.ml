(* Tests for the telemetry layer: the monotonic clock, instruments and
   their jobs-invariance, span nesting and cross-domain parenting,
   disabled-mode transparency, metrics JSON / schema-v3 artifact
   round-trips, the Chrome trace writer's atomic temp-file handling,
   and the shared CLI telemetry flags. *)

module Clock = Commx_util.Clock
module Telemetry = Commx_util.Telemetry
module Pool = Commx_util.Pool
module Cli = Commx_util.Cli
module Json = Commx_util.Json
module Artifact = Commx_util.Artifact
module Fsutil = Commx_util.Fsutil

(* The recording level is process-global: force a known state around
   every test so case ordering cannot leak recordings between them. *)
let with_level lvl f =
  Telemetry.reset ();
  Telemetry.set_level lvl;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_level Telemetry.Off;
      Telemetry.reset ())
    f

let sid (s : Telemetry.span_id) = (s :> int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let fresh_dir name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "commx-telemetry-%s-%d" name (Unix.getpid ()))
  in
  Fsutil.mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_ns ()) in
  let mono = ref true in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if t < !prev then mono := false;
    prev := t
  done;
  Alcotest.(check bool) "non-decreasing over 10k reads" true !mono;
  let t0 = Clock.now_s () in
  Unix.sleepf 0.02;
  let dt = Clock.now_s () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "a 20 ms sleep measures as such (%.4f s)" dt)
    true
    (dt >= 0.015);
  Alcotest.(check (float 1e-9)) "ns_to_s" 1.5 (Clock.ns_to_s 1_500_000_000);
  Alcotest.(check (float 1e-9)) "ns_to_us" 1_500. (Clock.ns_to_us 1_500_000)

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)
(* ------------------------------------------------------------------ *)

let test_instruments_basic () =
  with_level Telemetry.Metrics (fun () ->
      let c = Telemetry.counter "test.basic" in
      Alcotest.(check bool) "counters are interned by name" true
        (c == Telemetry.counter "test.basic");
      Telemetry.add c 5;
      Telemetry.incr c;
      Alcotest.(check (option int)) "merged total" (Some 6)
        (List.assoc_opt "test.basic" (Telemetry.counters ()));
      let before = Telemetry.counters () in
      Telemetry.add c 4;
      Alcotest.(check (list (pair string int))) "diff keeps nonzero deltas"
        [ ("test.basic", 4) ]
        (Telemetry.diff_counters ~before (Telemetry.counters ()));
      let g = Telemetry.gauge "test.gauge" in
      Telemetry.set_gauge g 2.5;
      Alcotest.(check (option (float 1e-9))) "gauge last-write-wins" (Some 2.5)
        (List.assoc_opt "test.gauge" (Telemetry.gauges ()));
      let h = Telemetry.histogram "test.hist" in
      List.iter (Telemetry.observe h) [ 1; 2; 3; 8 ];
      match List.assoc_opt "test.hist" (Telemetry.histograms ()) with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some s ->
          Alcotest.(check int) "count" 4 s.Telemetry.count;
          Alcotest.(check int) "sum" 14 s.Telemetry.sum;
          Alcotest.(check int) "min" 1 s.Telemetry.min;
          Alcotest.(check int) "max" 8 s.Telemetry.max)

(* The acceptance-critical property: counters and histograms are merged
   order-invariantly from per-domain cells, and instrumented sites are
   keyed by data, so totals are bit-identical at any job count and at
   any level >= Metrics. *)
let run_instrumented jobs =
  Telemetry.reset ();
  let c = Telemetry.counter "test.work" in
  let h = Telemetry.histogram "test.sizes" in
  Pool.with_pool ~jobs (fun pool ->
      Pool.parallel_for pool ~chunk:3 64 (fun i ->
          Telemetry.add c (i + 1);
          Telemetry.observe h (i mod 7)));
  ignore (Telemetry.drain_events ());
  (Telemetry.counters (), Telemetry.histograms ())

let test_counters_jobs_invariant () =
  with_level Telemetry.Metrics (fun () ->
      let c1, h1 = run_instrumented 1 in
      let c4, h4 = run_instrumented 4 in
      Alcotest.(check (list (pair string int)))
        "counters identical, jobs 1 vs jobs 4" c1 c4;
      Alcotest.(check bool) "histograms identical, jobs 1 vs jobs 4" true
        (h1 = h4);
      Alcotest.(check (option int)) "sum of 1..64" (Some (64 * 65 / 2))
        (List.assoc_opt "test.work" c1);
      (* tracing on top of metrics must not perturb counter totals *)
      Telemetry.set_level Telemetry.Trace;
      let c4t, _ = run_instrumented 4 in
      Alcotest.(check (list (pair string int)))
        "counters identical, Metrics vs Trace" c1 c4t)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_across_domains () =
  with_level Telemetry.Trace (fun () ->
      Alcotest.(check int) "no span open initially"
        (sid Telemetry.null_span)
        (sid (Telemetry.current_span ()));
      Telemetry.with_span "outer" ~args:[ ("k0", "v0") ] (fun () ->
          let outer = Telemetry.current_span () in
          Alcotest.(check bool) "outer is open" true
            (sid outer <> sid Telemetry.null_span);
          Telemetry.with_span "inner" (fun () ->
              Alcotest.(check bool) "inner is a fresh span" true
                (sid (Telemetry.current_span ()) <> sid outer));
          (* a span opened on a worker domain parents to the captured
             id from the spawning domain — the Pool convention *)
          let d =
            Domain.spawn (fun () ->
                Telemetry.with_span ~parent:outer "child" (fun () ->
                    Telemetry.annotate [ ("outcome", "ok") ]))
          in
          Domain.join d);
      let events = Telemetry.drain_events () in
      let find name =
        match List.find_opt (fun e -> e.Telemetry.name = name) events with
        | Some e -> e
        | None -> Alcotest.failf "event %s missing" name
      in
      let outer = find "outer" in
      let inner = find "inner" in
      let child = find "child" in
      Alcotest.(check int) "outer is a root"
        (sid Telemetry.null_span)
        (sid outer.Telemetry.parent);
      Alcotest.(check int) "inner nests in outer" (sid outer.Telemetry.id)
        (sid inner.Telemetry.parent);
      Alcotest.(check int) "cross-domain child parents to outer"
        (sid outer.Telemetry.id)
        (sid child.Telemetry.parent);
      Alcotest.(check bool) "child ran on another domain" true
        (child.Telemetry.tid <> outer.Telemetry.tid);
      Alcotest.(check bool) "annotate reached the child span" true
        (List.mem ("outcome", "ok") child.Telemetry.args);
      Alcotest.(check bool) "open-time args kept" true
        (List.mem ("k0", "v0") outer.Telemetry.args);
      Alcotest.(check bool) "durations non-negative" true
        (List.for_all (fun e -> e.Telemetry.dur_ns >= 0) events);
      Alcotest.(check bool) "children start within the parent" true
        (inner.Telemetry.start_ns >= outer.Telemetry.start_ns
        && child.Telemetry.start_ns >= outer.Telemetry.start_ns);
      Alcotest.(check bool) "sorted by start time" true
        (let rec sorted = function
           | a :: (b :: _ as tl) ->
               a.Telemetry.start_ns <= b.Telemetry.start_ns && sorted tl
           | _ -> true
         in
         sorted events);
      Alcotest.(check int) "drain removes events" 0
        (List.length (Telemetry.drain_events ())))

let test_span_closed_on_raise () =
  with_level Telemetry.Trace (fun () ->
      (try Telemetry.with_span "boom" (fun () -> failwith "x")
       with Failure _ -> ());
      Alcotest.(check int) "span stack unwound"
        (sid Telemetry.null_span)
        (sid (Telemetry.current_span ()));
      Alcotest.(check bool) "raising span still recorded" true
        (List.exists
           (fun e -> e.Telemetry.name = "boom")
           (Telemetry.drain_events ())))

(* ------------------------------------------------------------------ *)
(* Disabled mode                                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  with_level Telemetry.Off (fun () ->
      let c = Telemetry.counter "test.off" in
      Telemetry.add c 100;
      let h = Telemetry.histogram "test.off.hist" in
      Telemetry.observe h 3;
      let v =
        Telemetry.with_span "never" (fun () ->
            Alcotest.(check int) "no span opened"
              (sid Telemetry.null_span)
              (sid (Telemetry.current_span ()));
            41 + 1)
      in
      Alcotest.(check int) "with_span is transparent" 42 v;
      Alcotest.(check int) "with_phase is transparent" 7
        (Telemetry.with_phase "p" (fun () -> 7));
      Telemetry.annotate [ ("a", "b") ];
      (* flip recording on only to READ the cells: nothing arrived *)
      Telemetry.set_level Telemetry.Metrics;
      Alcotest.(check (option int)) "counter untouched" (Some 0)
        (List.assoc_opt "test.off" (Telemetry.counters ()));
      (match List.assoc_opt "test.off.hist" (Telemetry.histograms ()) with
      | Some s -> Alcotest.(check int) "histogram untouched" 0 s.Telemetry.count
      | None -> ());
      Alcotest.(check (list (pair string (float 1e-9)))) "no phases" []
        (Telemetry.drain_phases ());
      Alcotest.(check int) "no events" 0
        (List.length (Telemetry.drain_events ())))

(* ------------------------------------------------------------------ *)
(* Metrics JSON and schema-v3 artifacts                                *)
(* ------------------------------------------------------------------ *)

let test_metrics_json_roundtrip () =
  with_level Telemetry.Metrics (fun () ->
      let c = Telemetry.counter "test.bits" in
      Telemetry.add c 9;
      let j = Telemetry.metrics_to_json ~phases:[ ("verify", 0.25) ] () in
      (* the exporter emits what the parser reads back *)
      let j' = Json.of_string (Json.to_string j) in
      Alcotest.(check bool) "serialization round-trips" true (j = j');
      (match Json.member "counters" j with
      | Some (Json.Obj kvs) ->
          Alcotest.(check bool) "counter exported" true
            (List.assoc_opt "test.bits" kvs = Some (Json.Int 9))
      | _ -> Alcotest.fail "counters object missing");
      Alcotest.(check bool) "phases exported" true
        (Json.member "wall_s_by_phase" j
        = Some (Json.Obj [ ("verify", Json.Float 0.25) ])))

let test_artifact_v3_roundtrip () =
  let dir = fresh_dir "artifact" in
  let metrics =
    Artifact.metrics
      ~counters:[ ("channel.bits_total", 42); ("prng.draws", 7) ]
      ~phases:[ ("generate", 0.125) ]
  in
  let report_fields =
    [ ("title", Json.String "test"); ("params", Json.Obj []);
      ("rows", Json.List []); ("fits", Json.Obj []) ]
  in
  Artifact.write ~dir ~id:"T1" ~jobs:4 ~wall_s:1.5 ~attempts:1 ~status:"ok"
    ~error:Json.Null ~metrics ~report_fields ();
  let doc = Json.of_file (Artifact.path ~dir ~id:"T1") in
  Alcotest.(check bool) "schema version 3" true
    (Json.member "schema_version" doc = Some (Json.Int 3));
  let m =
    match Json.member "metrics" doc with
    | Some m -> m
    | None -> Alcotest.fail "metrics object missing"
  in
  Alcotest.(check bool) "bits_total lifted from channel counter" true
    (Json.member "bits_total" m = Some (Json.Int 42));
  Alcotest.(check bool) "counters round-trip" true
    (Json.member "counters" m
    = Some
        (Json.Obj
           [ ("channel.bits_total", Json.Int 42); ("prng.draws", Json.Int 7) ]));
  Alcotest.(check bool) "phases round-trip" true
    (Json.member "wall_s_by_phase" m
    = Some (Json.Obj [ ("generate", Json.Float 0.125) ]));
  Alcotest.(check bool) "resume sees the ok artifact" true
    (Artifact.resume_done ~dir ~id:"T1");
  Alcotest.(check bool) "resume ignores missing artifacts" false
    (Artifact.resume_done ~dir ~id:"T2");
  Artifact.write ~dir ~id:"T3" ~jobs:1 ~wall_s:0.1 ~attempts:3 ~status:"failed"
    ~error:(Json.String "boom") ~report_fields ();
  Alcotest.(check bool) "resume ignores non-ok artifacts" false
    (Artifact.resume_done ~dir ~id:"T3");
  (* telemetry off: the metrics field is null, not absent *)
  Alcotest.(check bool) "metrics null when telemetry off" true
    (Json.member "metrics" (Json.of_file (Artifact.path ~dir ~id:"T3"))
    = Some Json.Null)

(* ------------------------------------------------------------------ *)
(* Chrome trace writer                                                 *)
(* ------------------------------------------------------------------ *)

let leftover_temps dir base =
  Sys.readdir dir |> Array.to_list
  |> List.filter (String.starts_with ~prefix:(base ^ "."))

let test_trace_writer () =
  with_level Telemetry.Trace (fun () ->
      let dir = fresh_dir "trace" in
      let path = Filename.concat dir "run.trace" in
      Telemetry.with_span "alpha" ~args:[ ("id", "E0") ] (fun () ->
          Telemetry.with_span "beta" (fun () -> ()));
      let w = Telemetry.Trace.open_file ~path in
      Telemetry.Trace.flush w (Telemetry.drain_events ());
      (* incremental: a second batch of events in a later flush *)
      Telemetry.with_span "gamma" (fun () -> ());
      Telemetry.Trace.flush w (Telemetry.drain_events ());
      Telemetry.Trace.close w;
      Telemetry.Trace.close w (* idempotent *);
      let doc = Json.of_file path in
      let events =
        match Json.member "traceEvents" doc with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      Alcotest.(check bool) "all spans exported" true (List.length events >= 3);
      (* every event carries the keys chrome://tracing requires *)
      List.iter
        (fun ev ->
          List.iter
            (fun k ->
              if Json.member k ev = None then
                Alcotest.failf "event lacks %s: %s" k (Json.to_string ev))
            [ "name"; "ph"; "ts"; "pid"; "tid" ])
        events;
      let names =
        List.filter_map
          (fun ev ->
            match Json.member "name" ev with
            | Some (Json.String s) -> Some s
            | _ -> None)
          events
      in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [ "alpha"; "beta"; "gamma" ];
      Alcotest.(check bool) "spans are ph=X complete events" true
        (List.exists
           (fun ev -> Json.member "ph" ev = Some (Json.String "X"))
           events);
      Alcotest.(check (list string)) "no temp file after close" []
        (leftover_temps dir "run.trace");
      (* abort discards without publishing and leaves no temp behind,
         even after incremental flushes (the Json.Atomic guarantee) *)
      let path2 = Filename.concat dir "aborted.trace" in
      Telemetry.with_span "delta" (fun () -> ());
      let w2 = Telemetry.Trace.open_file ~path:path2 in
      Telemetry.Trace.flush w2 (Telemetry.drain_events ());
      Telemetry.Trace.abort w2;
      Telemetry.Trace.abort w2 (* idempotent *);
      Alcotest.(check bool) "aborted trace not published" false
        (Sys.file_exists path2);
      Alcotest.(check (list string)) "no temp file after abort" []
        (leftover_temps dir "aborted.trace"))

(* [with_file] commits the trace even when its body raises, after a
   final drain that picks up spans the body never flushed; without a
   path it writes nothing and its flush just discards events. *)
let test_trace_with_file () =
  with_level Telemetry.Trace (fun () ->
      let dir = fresh_dir "with-file" in
      let path = Filename.concat dir "run.trace" in
      (match
         Telemetry.Trace.with_file (Some path) (fun ~flush ->
             Telemetry.with_span "flushed" (fun () -> ());
             flush ();
             Telemetry.with_span "unflushed" (fun () -> ());
             raise Exit)
       with
      | () -> Alcotest.fail "with_file swallowed the exception"
      | exception Exit -> ());
      let names =
        match Json.member "traceEvents" (Json.of_file path) with
        | Some (Json.List l) ->
            List.filter_map
              (fun ev ->
                match Json.member "name" ev with
                | Some (Json.String s) -> Some s
                | _ -> None)
              l
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [ "flushed"; "unflushed" ];
      Alcotest.(check (list string)) "no temp file" []
        (leftover_temps dir "run.trace");
      Telemetry.with_span "dropped" (fun () -> ());
      Telemetry.Trace.with_file None (fun ~flush -> flush ());
      Alcotest.(check int) "flush without a file drains" 0
        (List.length (Telemetry.drain_events ())))

(* ------------------------------------------------------------------ *)
(* Cli telemetry flags                                                 *)
(* ------------------------------------------------------------------ *)

let test_cli_telemetry_flags () =
  let parse argv =
    match Cli.parse argv with
    | Ok v -> v
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  let opts, rest = parse [ "E3"; "--trace"; "out/run.trace"; "--metrics" ] in
  Alcotest.(check (option string)) "trace file" (Some "out/run.trace")
    opts.Cli.trace_file;
  Alcotest.(check bool) "metrics flag" true opts.Cli.metrics;
  Alcotest.(check (list string)) "positional intact" [ "E3" ] rest;
  Alcotest.(check bool) "--trace selects Trace" true
    (Cli.telemetry_level opts = Telemetry.Trace);
  let opts, _ = parse [ "--metrics" ] in
  Alcotest.(check bool) "--metrics selects Metrics" true
    (Cli.telemetry_level opts = Telemetry.Metrics);
  let opts, _ = parse [ "--json=out" ] in
  Alcotest.(check bool) "--json selects Metrics (artifacts embed them)" true
    (Cli.telemetry_level opts = Telemetry.Metrics);
  let opts, _ = parse [] in
  Alcotest.(check bool) "default level Off" true
    (Cli.telemetry_level opts = Telemetry.Off);
  Alcotest.(check bool) "help default off" false opts.Cli.help;
  let opts, _ = parse [ "--help" ] in
  Alcotest.(check bool) "--help parsed" true opts.Cli.help;
  (match Cli.parse [ "--trace" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "valueless --trace must error");
  (match Cli.parse [ "--trace"; "--metrics" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "--trace must not swallow a following flag");
  (match Cli.parse [ "--metrics=yes" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "--metrics takes no value");
  (* --help output documents every flag *)
  List.iter
    (fun flag ->
      Alcotest.(check bool) (flag ^ " documented in help") true
        (contains Cli.help_text flag))
    [ "--jobs"; "--json"; "--timeout"; "--retries"; "--keep-going"; "--resume";
      "--inject-faults"; "--trace"; "--metrics"; "--help" ]

(* ------------------------------------------------------------------ *)
(* Quantiles and the empty-histogram contract                          *)
(* ------------------------------------------------------------------ *)

(* /metrics-style exporters render every interned histogram, observed
   or not — so an empty summary must be totally benign: quantiles 0.0
   (never NaN, never an exception) and JSON min/max pinned to 0. *)
let test_empty_histogram_is_benign () =
  with_level Telemetry.Metrics (fun () ->
      let _h = Telemetry.histogram "test.never_observed" in
      match List.assoc_opt "test.never_observed" (Telemetry.histograms ()) with
      | None -> Alcotest.fail "interned histogram missing from snapshot"
      | Some s ->
          Alcotest.(check int) "count" 0 s.Telemetry.count;
          List.iter
            (fun p ->
              let q = Telemetry.summary_quantile s p in
              Alcotest.(check bool)
                (Printf.sprintf "p%.0f not NaN" p)
                false (Float.is_nan q);
              Alcotest.(check (float 0.0)) (Printf.sprintf "p%.0f" p) 0.0 q)
            [ 0.0; 50.0; 95.0; 99.0; 100.0 ];
          let j = Telemetry.metrics_to_json () in
          let hists =
            match Json.member "histograms" j with
            | Some h -> h
            | None -> Alcotest.fail "metrics JSON lacks histograms"
          in
          (match Json.member "test.never_observed" hists with
          | Some h ->
              Alcotest.(check bool) "JSON min/max pinned to 0" true
                (Json.member "min" h = Some (Json.Int 0)
                && Json.member "max" h = Some (Json.Int 0))
          | None -> Alcotest.fail "empty histogram absent from JSON"))

let test_summary_quantile_small_exact () =
  with_level Telemetry.Metrics (fun () ->
      let h = Telemetry.histogram "test.q_small" in
      List.iter (Telemetry.observe h) [ 1; 2; 4 ];
      let s = List.assoc "test.q_small" (Telemetry.histograms ()) in
      let q p = Telemetry.summary_quantile s p in
      Alcotest.(check (float 0.0)) "p0 is the min bucket" 1.0 (q 0.0);
      Alcotest.(check (float 0.0)) "p50 lands mid" 2.0 (q 50.0);
      Alcotest.(check (float 0.0)) "p100 is the max" 4.0 (q 100.0))

let test_summary_quantile_clamped_and_ordered () =
  with_level Telemetry.Metrics (fun () ->
      (* 17 falls in the le=18 bucket (values up to 8 are exact, above
         that a bucket spans an eighth of a power of two): the bucket
         bound overshoots the data, so the estimate must clamp to the
         observed max. *)
      let h = Telemetry.histogram "test.q_clamp" in
      List.iter (Telemetry.observe h) [ 17; 17 ];
      let s = List.assoc "test.q_clamp" (Telemetry.histograms ()) in
      Alcotest.(check (list (pair int int))) "one le=18 bucket" [ (18, 2) ]
        s.Telemetry.buckets;
      Alcotest.(check (float 0.0)) "clamped to max" 17.0
        (Telemetry.summary_quantile s 99.0);
      Alcotest.(check (float 0.0)) "clamped from below too" 17.0
        (Telemetry.summary_quantile s 1.0);
      (* skewed data: quantiles stay within [min, max] and ordered *)
      let h2 = Telemetry.histogram "test.q_skew" in
      List.iter (Telemetry.observe h2) (List.init 100 (fun i -> (i mod 10) + 1));
      Telemetry.observe h2 100_000;
      let s2 = List.assoc "test.q_skew" (Telemetry.histograms ()) in
      let q p = Telemetry.summary_quantile s2 p in
      let p50 = q 50.0 and p95 = q 95.0 and p99 = q 99.0 in
      Alcotest.(check bool) "ordered p50 <= p95 <= p99" true
        (p50 <= p95 && p95 <= p99);
      Alcotest.(check bool) "within [min, max]" true
        (p50 >= float_of_int s2.Telemetry.min
        && p99 <= float_of_int s2.Telemetry.max))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [ ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "instruments",
        [ Alcotest.test_case "counters, gauges, histograms" `Quick
            test_instruments_basic;
          Alcotest.test_case "bit-identical at any --jobs" `Quick
            test_counters_jobs_invariant;
          Alcotest.test_case "empty histogram is benign" `Quick
            test_empty_histogram_is_benign;
          Alcotest.test_case "quantiles: small exact" `Quick
            test_summary_quantile_small_exact;
          Alcotest.test_case "quantiles: clamped + ordered" `Quick
            test_summary_quantile_clamped_and_ordered ] );
      ( "spans",
        [ Alcotest.test_case "nesting and cross-domain parenting" `Quick
            test_span_nesting_across_domains;
          Alcotest.test_case "closed on raise" `Quick test_span_closed_on_raise
        ] );
      ( "disabled",
        [ Alcotest.test_case "records nothing at Off" `Quick
            test_disabled_records_nothing ] );
      ( "export",
        [ Alcotest.test_case "metrics JSON round-trip" `Quick
            test_metrics_json_roundtrip;
          Alcotest.test_case "schema-v3 artifact round-trip" `Quick
            test_artifact_v3_roundtrip;
          Alcotest.test_case "chrome trace writer" `Quick test_trace_writer;
          Alcotest.test_case "trace with_file" `Quick test_trace_with_file ] );
      ( "cli",
        [ Alcotest.test_case "telemetry flags" `Quick test_cli_telemetry_flags
        ] )
    ]
