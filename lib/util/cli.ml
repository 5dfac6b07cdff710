(* Shared harness options, flag parsing, and filesystem helpers. *)

type opts = {
  jobs : int;
  json_dir : string option;
  timeout_s : float option;
  retries : int;
  keep_going : bool;
  resume_dir : string option;
  fault_seed : int option;
  trace_file : string option;
  metrics : bool;
  help : bool;
}

let defaults =
  {
    jobs = 1;
    json_dir = None;
    timeout_s = None;
    retries = 0;
    keep_going = false;
    resume_dir = None;
    fault_seed = None;
    trace_file = None;
    metrics = false;
    help = false;
  }

let fault_seed_env_var = "COMMX_INJECT_FAULTS"

let with_env_fault_seed opts =
  match opts.fault_seed with
  | Some _ -> opts
  | None -> (
      match Sys.getenv_opt fault_seed_env_var with
      | Some v -> { opts with fault_seed = int_of_string_opt v }
      | None -> opts)

let usage =
  "[--jobs N] [--json DIR] [--timeout SECONDS] [--retries N] \
   [--keep-going] [--resume DIR] [--inject-faults SEED] \
   [--trace FILE] [--metrics] [--help]"

(* Every flag, with its default, one per line — keep in sync with
   [opts]/[parse]; test_telemetry checks each flag name appears. *)
let help_text =
  String.concat "\n"
    [
      "Options:";
      "  --jobs N             worker domains (default: 1)";
      "  --json DIR           write BENCH_*.json artifacts to DIR (default: off)";
      "  --timeout SECONDS    per-attempt time budget (default: none)";
      "  --retries N          extra attempts for retryable failures (default: 0)";
      "  --keep-going         record failures and continue the sweep (default: off)";
      "  --resume DIR         skip experiments with a valid ok artifact in DIR \
       (default: off)";
      "  --inject-faults SEED deterministic fault injection (default: off; env \
       " ^ fault_seed_env_var ^ ")";
      "  --trace FILE         write a Chrome trace-event JSON to FILE (default: \
       off)";
      "  --metrics            print a metrics summary at end of run (default: \
       off)";
      "  --help               show this help";
    ]

(* Telemetry level implied by the options: tracing subsumes metrics;
   artifacts ([--json]) embed a metrics object, so they need counting
   on even without an explicit [--metrics]. *)
let telemetry_level opts =
  if opts.trace_file <> None then Telemetry.Trace
  else if opts.metrics || opts.json_dir <> None then Telemetry.Metrics
  else Telemetry.Off

let artifact_dir opts =
  match opts.json_dir with Some _ as d -> d | None -> opts.resume_dir

(* One entry per value-taking flag: name, validating setter. *)
let parse argv =
  let opts = ref defaults in
  let positional = ref [] in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let set_valued key v =
    match key with
    | "--jobs" -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> Stdlib.Ok { !opts with jobs = n }
        | _ -> err "--jobs expects a positive integer, got %s" v)
    | "--json" -> Stdlib.Ok { !opts with json_dir = Some v }
    | "--timeout" -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> Stdlib.Ok { !opts with timeout_s = Some s }
        | _ -> err "--timeout expects a positive number of seconds, got %s" v)
    | "--retries" -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Stdlib.Ok { !opts with retries = n }
        | _ -> err "--retries expects a non-negative integer, got %s" v)
    | "--resume" -> Stdlib.Ok { !opts with resume_dir = Some v }
    | "--trace" -> Stdlib.Ok { !opts with trace_file = Some v }
    | "--inject-faults" -> (
        match int_of_string_opt v with
        | Some s -> Stdlib.Ok { !opts with fault_seed = Some s }
        | None -> err "--inject-faults expects an integer seed, got %s" v)
    | _ -> err "unknown flag: %s" key
  in
  let valued key = List.mem key [ "--jobs"; "--json"; "--timeout"; "--retries"; "--resume"; "--inject-faults"; "--trace" ] in
  (* A "--"-prefixed token is never a flag's value: `--json --keep-going`
     is a missing value (fail loudly), not json_dir = "--keep-going". *)
  let looks_like_flag v = String.length v >= 2 && String.sub v 0 2 = "--" in
  let rec go = function
    | [] ->
        Stdlib.Ok (with_env_fault_seed !opts, List.rev !positional)
    | "--keep-going" :: rest ->
        opts := { !opts with keep_going = true };
        go rest
    | "--metrics" :: rest ->
        opts := { !opts with metrics = true };
        go rest
    | "--help" :: rest ->
        opts := { !opts with help = true };
        go rest
    | key :: v :: rest when valued key && not (looks_like_flag v) -> (
        match set_valued key v with
        | Stdlib.Ok o ->
            opts := o;
            go rest
        | Error _ as e -> e)
    | key :: _ when valued key -> err "missing value for flag %s" key
    | arg :: rest -> (
        match String.index_opt arg '=' with
        | Some i when String.length arg > 2 && String.sub arg 0 2 = "--" -> (
            let key = String.sub arg 0 i in
            let v = String.sub arg (i + 1) (String.length arg - i - 1) in
            if List.mem key [ "--keep-going"; "--metrics"; "--help" ] then
              err "%s takes no value" key
            else
              match set_valued key v with
              | Stdlib.Ok o ->
                  opts := o;
                  go rest
              | Error _ as e -> e)
        | _ ->
            if String.length arg > 1 && arg.[0] = '-' then
              err "unknown flag: %s" arg
            else begin
              positional := arg :: !positional;
              go rest
            end)
  in
  go argv

let mkdir_p = Fsutil.mkdir_p
