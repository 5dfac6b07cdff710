(* Experiment harness.

   Usage:
     dune exec bench/main.exe                      # run every experiment
     dune exec bench/main.exe -- E3 E9             # run selected experiments
     dune exec bench/main.exe -- E3 --jobs 4       # domain-parallel hot loops
     dune exec bench/main.exe -- all --json out/   # also write BENCH_E*.json
     dune exec bench/main.exe -- micro             # Bechamel substrate benches
     dune exec bench/main.exe -- all micro         # everything

   Each experiment regenerates one of the paper's claims (this paper
   has no empirical tables; the reproducible units are the theorem,
   corollaries, lemmas and constructions — see DESIGN.md section 4 and
   EXPERIMENTS.md for the mapping).

   Seeded experiments derive per-work-item generators by splitting the
   master seed BEFORE fanning out, so the measured values in the tables
   and JSON artifacts are bit-identical at any --jobs value.  With
   --json DIR, each experiment E<i> additionally writes
   DIR/BENCH_E<i>.json containing the same measurements as structured
   rows plus wall-clock, job-count and supervision metadata (schema
   version 2, documented in EXPERIMENTS.md).

   Supervision (Commx_util.Supervisor): every experiment runs under an
   ok / failed / timed_out classification.  --timeout S bounds each
   attempt with a cooperative monotonic-clock deadline; --retries N
   retries transient (injected) failures with exponential backoff;
   --keep-going records failures and continues the sweep instead of
   aborting, the exit code (0 all ok / 1 otherwise) summarizing the
   run.  Artifacts are written atomically (temp file + rename) and
   stamped with a status, so --resume DIR skips experiments whose valid
   `status: ok` artifact already exists.  --inject-faults SEED (or the
   env var COMMX_INJECT_FAULTS) enables the deterministic fault
   injector that exercises all of the above reproducibly.

   Telemetry (Commx_util.Telemetry): --trace FILE streams a Chrome
   trace-event JSON (chrome://tracing / Perfetto) of pool batches,
   supervisor attempts, protocol executions and experiment phases;
   --metrics prints the counter/histogram summary at end of run.
   Artifacts (schema version 3) embed a per-experiment metrics object:
   total protocol bits, wall-clock by phase, and every counter delta —
   bit-identical at any --jobs value.  With none of --trace / --metrics
   / --json, telemetry is off and costs nothing. *)

module Json = Commx_util.Json
module Pool = Commx_util.Pool
module Cli = Commx_util.Cli
module Clock = Commx_util.Clock
module Faults = Commx_util.Faults
module Supervisor = Commx_util.Supervisor
module Telemetry = Commx_util.Telemetry
module Artifact = Commx_util.Artifact

let usage_exit () =
  Printf.eprintf
    "usage: main.exe [EXPERIMENT...] %s\n\
     available experiments: %s micro all\n"
    Cli.usage
    (String.concat " " (List.map fst Experiments.all));
  exit 1

let write_artifact dir ~jobs ~wall_s ~attempts ~metrics ~id outcome =
  let status = Supervisor.outcome_label outcome in
  let report_fields =
    match outcome with
    | Supervisor.Ok (r : Experiments.report) ->
        [ ("title", Json.String r.Experiments.title);
          ("params", Json.Obj r.Experiments.params);
          ("rows", Json.List r.Experiments.rows);
          ("fits", Json.Obj r.Experiments.fits) ]
    | Supervisor.Failed _ | Supervisor.Timed_out _ ->
        [ ("title", Json.Null); ("params", Json.Obj []); ("rows", Json.List []);
          ("fits", Json.Obj []) ]
  in
  Artifact.write ~dir ~id ~jobs ~wall_s ~attempts ~status
    ~error:(Supervisor.outcome_error outcome) ?metrics ~report_fields ();
  let path = Artifact.path ~dir ~id in
  match outcome with
  | Supervisor.Ok r ->
      Printf.printf "[json] wrote %s (%d rows)\n" path
        (List.length r.Experiments.rows)
  | _ -> Printf.printf "[json] wrote %s (status: %s)\n" path status

let () =
  (* run_main: SIGPIPE hygiene — `main.exe ... | head` exits 0 when the
     consumer goes away instead of dying of a fatal signal. *)
  Commx_util.Sigguard.run_main @@ fun () ->
  (* Without this, Supervisor's captured backtraces are empty strings
     and Failed artifacts lose their most useful debugging field. *)
  Printexc.record_backtrace true;
  let argv = List.tl (Array.to_list Sys.argv) in
  let opts, ids =
    match Cli.parse argv with
    | Ok v -> v
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        usage_exit ()
  in
  if opts.Cli.help then begin
    Printf.printf
      "usage: main.exe [EXPERIMENT...] %s\n\
       available experiments: %s micro all\n%s\n"
      Cli.usage
      (String.concat " " (List.map fst Experiments.all))
      Cli.help_text;
    exit 0
  end;
  let ids = if ids = [] then [ "all" ] else ids in
  (* Validate EVERY requested id up front: a typo like `E99` must fail
     the whole invocation, not silently run the valid subset. *)
  let known id =
    id = "all" || id = "micro" || List.mem_assoc id Experiments.all
  in
  let unknown = List.filter (fun id -> not (known id)) ids in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\navailable: %s micro all\n"
      (String.concat " " unknown)
      (String.concat " " (List.map fst Experiments.all));
    exit 1
  end;
  let run_all = List.mem "all" ids in
  let json_dir = Cli.artifact_dir opts in
  let faults =
    Option.map (fun seed -> Faults.create ~seed ()) opts.Cli.fault_seed
  in
  (* Telemetry level before any domain spawns (spawn publishes it). *)
  Telemetry.set_level (Cli.telemetry_level opts);
  Printf.printf
    "Chu-Schnitger (SPAA 1989 / J. Complexity 1991) reproduction — \
     experiment harness (jobs: %d%s%s%s)\n"
    opts.Cli.jobs
    (match opts.Cli.timeout_s with
    | Some s -> Printf.sprintf ", timeout: %gs" s
    | None -> "")
    (if opts.Cli.retries > 0 then Printf.sprintf ", retries: %d" opts.Cli.retries
     else "")
    (match opts.Cli.fault_seed with
    | Some s -> Printf.sprintf ", fault injection seed: %d" s
    | None -> "");
  let ok = ref 0 and failed = ref 0 and timed_out = ref 0 and skipped = ref 0 in
  let aborted = ref false in
  let config =
    Supervisor.config ?timeout_s:opts.Cli.timeout_s ~retries:opts.Cli.retries ()
  in
  Telemetry.Trace.with_file opts.Cli.trace_file (fun ~flush:flush_trace ->
    Pool.with_pool ~jobs:opts.Cli.jobs (fun pool ->
        Pool.set_faults pool faults;
        let ctx =
          { Experiments.pool;
            jobs = opts.Cli.jobs;
            tick = (fun () -> Pool.check_cancel pool) }
        in
        List.iter
          (fun (id, f) ->
            if (run_all || List.mem id ids) && not !aborted then
              match opts.Cli.resume_dir with
              | Some dir when Artifact.resume_done ~dir ~id ->
                  incr skipped;
                  Printf.printf
                    "[resume] %s: ok artifact present, skipping\n" id
              | _ ->
                  let counters_before = Telemetry.counters () in
                  ignore (Telemetry.drain_phases ());
                  let t0 = Clock.now_s () in
                  let outcome, attempts =
                    Telemetry.with_span "experiment"
                      ~args:[ ("id", id) ]
                      (fun () ->
                        Supervisor.run ~config ~pool ~name:id
                          (fun ~attempt ->
                            Faults.point faults
                              ~site:
                                (Printf.sprintf "%s:attempt%d" id attempt);
                            f ctx))
                  in
                  let wall_s = Clock.now_s () -. t0 in
                  let metrics =
                    Artifact.metrics_since ~before:counters_before
                  in
                  flush_trace ();
                  (match outcome with
                  | Supervisor.Ok _ ->
                      incr ok;
                      Printf.printf "[%s] wall-clock: %.3f s\n" id wall_s
                  | Supervisor.Failed { exn; backtrace } ->
                      incr failed;
                      Printf.printf
                        "[%s] FAILED after %d attempt(s): %s\n%s" id attempts
                        exn
                        (if backtrace = "" then "" else backtrace ^ "\n");
                      if not opts.Cli.keep_going then aborted := true
                  | Supervisor.Timed_out budget ->
                      incr timed_out;
                      Printf.printf
                        "[%s] TIMED OUT after %d attempt(s) (%.3f s budget, \
                         %.3f s elapsed)\n"
                        id attempts budget wall_s;
                      if not opts.Cli.keep_going then aborted := true);
                  (match json_dir with
                  | Some dir ->
                      write_artifact dir ~jobs:opts.Cli.jobs ~wall_s ~attempts
                        ~metrics ~id outcome
                  | None -> ()))
          Experiments.all);
    if List.mem "micro" ids && not !aborted then begin
      let counters_before = Telemetry.counters () in
      ignore (Telemetry.drain_phases ());
      let t0 = Clock.now_s () in
      let rows = Micro.run () in
      let wall_s = Clock.now_s () -. t0 in
      let metrics = Artifact.metrics_since ~before:counters_before in
      flush_trace ();
      Printf.printf "[micro] wall-clock: %.3f s\n" wall_s;
      match json_dir with
      | Some dir ->
          Artifact.write ~dir ~id:"micro" ~jobs:opts.Cli.jobs ~wall_s
            ~attempts:1 ~status:"ok" ~error:Json.Null ?metrics
            ~report_fields:
              [ ("title",
                 Json.String
                   "Micro-benchmarks (Bechamel OLS + exact-CC ablations)");
                ("params", Json.Obj []);
                ("rows", Json.List rows);
                ("fits", Json.Obj []) ]
            ();
          Printf.printf "[json] wrote %s (%d rows)\n"
            (Artifact.path ~dir ~id:"micro")
            (List.length rows)
      | None -> ()
    end);
  if opts.Cli.metrics then Telemetry.print_summary stdout;
  if !failed + !timed_out + !skipped > 0 || opts.Cli.timeout_s <> None then
    Printf.printf
      "summary: %d ok, %d failed, %d timed out, %d skipped (resume)\n"
      !ok !failed !timed_out !skipped;
  if !aborted then
    Printf.eprintf "aborting after first failure (use --keep-going to continue)\n";
  exit (if !failed + !timed_out > 0 then 1 else 0)
