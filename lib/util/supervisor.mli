(** Supervised execution of harness experiments.

    One raising or hanging experiment must not abort a whole sweep:
    the supervisor runs each unit of work under a classification —
    [Ok] / [Failed] (exception + backtrace) / [Timed_out] — with a
    per-attempt monotonic-clock deadline enforced through the pool's
    cooperative cancel token ({!Pool.Token}), and bounded retry with
    exponential backoff for failures the policy deems transient
    (by default, injected faults — see {!Faults}).

    The deadline is installed as the pool's {e ambient} token
    ({!Pool.set_cancel}), so every pool batch the experiment issues,
    and every {!Pool.check_cancel} poll in its sequential sections,
    observes it without the experiment threading a token around.  The
    token is cleared again after each attempt, succeed or fail. *)

type failure = {
  exn : string;  (** [Printexc.to_string] of the raised exception *)
  backtrace : string;  (** captured backtrace, possibly empty *)
}

type 'a outcome =
  | Ok of 'a
  | Failed of failure
  | Timed_out of float
      (** the per-attempt budget, in seconds, that was exceeded *)

type config = {
  timeout_s : float option;  (** per-attempt time budget (monotonic clock) *)
  retries : int;  (** additional attempts after the first *)
  backoff_s : float;  (** sleep before retry [i] is [backoff_s * 2^(i-1)] *)
  jitter : float;
      (** max fractional backoff jitter in [[0, 1]]: retry [i] sleeps
          [backoff_s * 2^(i-1) * (1 + jitter * u)] where [u] is the
          deterministic {!val-jitter} value for
          [(jitter_seed, name, i)].  [0] (the default) reproduces the
          exact historical pauses. *)
  jitter_seed : int;  (** seed of the deterministic jitter stream *)
  retryable : exn -> bool;  (** which failures are worth retrying *)
}

val jitter : seed:int -> name:string -> attempt:int -> float
(** The deterministic jitter value in [[0, 1)]: a {e pure} function of
    [(seed, name, attempt)] (via {!Faults.unit_float}), never of time
    or scheduling.  Two retriers with different names (or seeds)
    desynchronize — no thundering herd at exact powers of
    [backoff_s] — while a replay under a fixed seed backs off
    bit-identically. *)

(** {2 Retry logging}

    Retry notices used to go straight to stderr with [Printf.eprintf];
    a long-running host (the [ccmx serve] daemon) needs to capture
    them into its own structured log instead of having attempts on
    different domains interleave raw lines.  The sink receives the
    structured record; formatting is the sink's business. *)

type retry_log = {
  name : string;  (** the supervised unit's name *)
  attempt : int;  (** the attempt that just failed (1-based) *)
  exn : string;  (** [Printexc.to_string] of the failure *)
  pause_s : float;  (** backoff before the next attempt *)
}

val default_log_sink : retry_log -> unit
(** The historical behavior: one flushed
    ["[supervisor] <name>: attempt <n> failed (<exn>), retrying in
    <pause>s"] line on stderr. *)

val set_log_sink : (retry_log -> unit) -> unit
(** Replace the process-wide retry sink.  Called once at host startup,
    before supervised work runs. *)

val reset_log_sink : unit -> unit
(** Restore {!default_log_sink} (used by tests). *)

val default_config : config
(** No timeout, no retries, [backoff_s = 0.1], no jitter, and
    [retryable] true exactly for {!Faults.Injected} (real bugs are
    deterministic; only injected/transient faults benefit from another
    attempt). *)

val config :
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?jitter:float ->
  ?jitter_seed:int ->
  ?retryable:(exn -> bool) ->
  unit ->
  config
(** {!default_config} with the given fields replaced.
    @raise Invalid_argument if [timeout_s <= 0], [retries < 0] or
    [jitter] outside [[0, 1]]. *)

val run :
  ?config:config -> pool:Pool.t -> name:string -> (attempt:int -> 'a) -> 'a outcome * int
(** [run ~pool ~name f] calls [f ~attempt:1]; on a retryable exception
    it backs off and calls [f ~attempt:2], and so on, up to
    [1 + retries] attempts.  Returns the final outcome and the number
    of attempts made.  Classification per attempt:

    - normal return: [Ok];
    - {!Pool.Cancelled} escaping [f] while this attempt's token has
      fired: [Timed_out] — never retried, since a repeat attempt would
      deterministically exceed the same budget;
    - any other exception — including a {!Pool.Cancelled} whose cause
      is not this attempt's deadline: [Failed] (after exhausting
      retries if [retryable]).

    [name] is used only for attempt-numbered log lines on retry.  The
    pool's ambient cancel token is replaced for the duration of each
    attempt and restored to [None] afterwards; [run] itself never
    raises on [f]'s behalf. *)

val outcome_label : 'a outcome -> string
(** ["ok"], ["failed"] or ["timed_out"] — the [status] vocabulary of
    the JSON artifacts (EXPERIMENTS.md, schema version 2). *)

val outcome_error : 'a outcome -> Json.t
(** The artifacts' [error] field: [null] for [Ok], the exception text
    for [Failed], the exceeded budget for [Timed_out]. *)
