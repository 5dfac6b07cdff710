(* Supervised execution: classify each attempt, enforce a per-attempt
   deadline through the pool's ambient cancel token, retry transient
   failures with exponential backoff. *)

type failure = { exn : string; backtrace : string }

type 'a outcome = Ok of 'a | Failed of failure | Timed_out of float

type config = {
  timeout_s : float option;
  retries : int;
  backoff_s : float;
  jitter : float;
  jitter_seed : int;
  retryable : exn -> bool;
}

let default_config =
  {
    timeout_s = None;
    retries = 0;
    backoff_s = 0.1;
    jitter = 0.0;
    jitter_seed = 0;
    retryable = (function Faults.Injected _ -> true | _ -> false);
  }

let config ?timeout_s ?(retries = default_config.retries)
    ?(backoff_s = default_config.backoff_s) ?(jitter = default_config.jitter)
    ?(jitter_seed = default_config.jitter_seed)
    ?(retryable = default_config.retryable) () =
  (match timeout_s with
  | Some s when s <= 0.0 -> invalid_arg "Supervisor.config: timeout_s must be > 0"
  | Some _ | None -> ());
  if retries < 0 then invalid_arg "Supervisor.config: retries must be >= 0";
  if not (jitter >= 0.0 && jitter <= 1.0) then
    invalid_arg "Supervisor.config: jitter must be in [0, 1]";
  { timeout_s; retries; backoff_s; jitter; jitter_seed; retryable }

(* Deterministic jitter: a pure function of (seed, name, attempt), so
   a replay under the same seed backs off bit-identically, while
   distinct retriers (different names or seeds) desynchronize instead
   of thundering in lockstep at exact powers of backoff_s. *)
let jitter ~seed ~name ~attempt =
  Faults.unit_float ~seed ~site:(Printf.sprintf "backoff:%s:%d" name attempt)

let backoff_pause config ~name ~attempt =
  let base = config.backoff_s *. (2.0 ** float_of_int (attempt - 1)) in
  if config.jitter = 0.0 then base
  else
    base
    *. (1.0 +. (config.jitter *. jitter ~seed:config.jitter_seed ~name ~attempt))

(* Retry log lines go through an injectable sink so a host that owns
   its output streams (the serve daemon, a structured logger) can
   capture them instead of having workers interleave raw lines on
   stderr across domains.  The default preserves the historical
   behavior: one flushed line on stderr. *)
type retry_log = {
  name : string;
  attempt : int;
  exn : string;
  pause_s : float;
}

let default_log_sink { name; attempt; exn; pause_s } =
  Printf.eprintf "[supervisor] %s: attempt %d failed (%s), retrying in %.2fs\n%!"
    name attempt exn pause_s

let log_sink : (retry_log -> unit) Atomic.t = Atomic.make default_log_sink
let set_log_sink f = Atomic.set log_sink f
let reset_log_sink () = Atomic.set log_sink default_log_sink

(* Attempt outcomes are a function of (workload, config, faults), not
   of scheduling, so these counters stay jobs-invariant. *)
let attempts_ok = Telemetry.counter "supervisor.attempts.ok"
let attempts_failed = Telemetry.counter "supervisor.attempts.failed"
let attempts_timed_out = Telemetry.counter "supervisor.attempts.timed_out"
let retries_counter = Telemetry.counter "supervisor.retries"

let run ?(config = default_config) ~pool ~name f =
  let rec go n =
    let token =
      match config.timeout_s with
      | Some s -> Pool.Token.create ~deadline:(Clock.now_s () +. s) ()
      | None -> Pool.Token.create ()
    in
    Pool.set_cancel pool (Some token);
    (* Classify with the raw exception in hand, clear the ambient
       token, and only then decide whether to retry.  Cancelled is a
       timeout only when THIS attempt's token fired: a stray Cancelled
       (external token, experiment code raising it) is a failure, not a
       deadline.  The raw backtrace must be grabbed at the catch point,
       before anything else can raise over it. *)
    let classified =
      Telemetry.with_span "supervisor:attempt"
        ~args:[ ("name", name); ("attempt", string_of_int n) ]
        (fun () ->
          let c =
            match f ~attempt:n with
            | v -> `Ok v
            | exception Pool.Cancelled when Pool.Token.cancelled token ->
                `Timeout
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                `Raised (e, Printexc.raw_backtrace_to_string bt)
          in
          Telemetry.annotate
            [
              ( "outcome",
                match c with
                | `Ok _ -> "ok"
                | `Timeout -> "timed_out"
                | `Raised _ -> "failed" );
            ];
          c)
    in
    Pool.set_cancel pool None;
    match classified with
    | `Ok v ->
        Telemetry.incr attempts_ok;
        (Ok v, n)
    | `Timeout ->
        Telemetry.incr attempts_timed_out;
        (Timed_out (Option.value config.timeout_s ~default:infinity), n)
    | `Raised (e, bt) ->
        Telemetry.incr attempts_failed;
        if n <= config.retries && config.retryable e then begin
          let pause = backoff_pause config ~name ~attempt:n in
          Telemetry.incr retries_counter;
          (Atomic.get log_sink)
            { name; attempt = n; exn = Printexc.to_string e; pause_s = pause };
          if pause > 0.0 then
            Telemetry.with_span "supervisor:backoff"
              ~args:[ ("name", name); ("pause_s", Printf.sprintf "%.3f" pause) ]
              (* Clock.sleepf re-sleeps across EINTR, so a signal
                 cannot silently truncate the backoff. *)
              (fun () -> Clock.sleepf pause);
          go (n + 1)
        end
        else (Failed { exn = Printexc.to_string e; backtrace = bt }, n)
  in
  go 1

let outcome_label = function
  | Ok _ -> "ok"
  | Failed _ -> "failed"
  | Timed_out _ -> "timed_out"

let outcome_error = function
  | Ok _ -> Json.Null
  | Failed { exn; _ } -> Json.String exn
  | Timed_out budget ->
      Json.String (Printf.sprintf "deadline exceeded (%.3f s budget)" budget)
