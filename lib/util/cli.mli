(** Shared harness plumbing: the supervision/run options both entry
    points accept, one flag parser, and filesystem helpers.

    [bench/main.exe] and [ccmx lemmas] used to each hand-roll their
    [--jobs]/[--json] handling; the resilient-runtime flags
    ([--timeout], [--retries], [--resume], [--keep-going],
    [--inject-faults]) are defined {e once} here instead — the bench
    harness parses its argv with {!parse}, and the cmdliner-based CLI
    builds the same {!opts} record from its terms, so defaults,
    validation and the environment fallback cannot drift apart. *)

type opts = {
  jobs : int;  (** worker domains, >= 1 *)
  json_dir : string option;  (** write BENCH_E*.json artifacts here *)
  timeout_s : float option;  (** per-attempt time budget (monotonic clock) *)
  retries : int;  (** extra attempts for retryable failures *)
  keep_going : bool;  (** record failures and continue the sweep *)
  resume_dir : string option;
      (** skip experiments with a valid [status: ok] artifact here *)
  fault_seed : int option;  (** enable deterministic fault injection *)
  trace_file : string option;  (** write a Chrome trace-event JSON here *)
  metrics : bool;  (** print the telemetry summary at end of run *)
  help : bool;  (** caller should print {!help_text} and exit 0 *)
}

val defaults : opts
(** [jobs = 1], everything else off. *)

val fault_seed_env_var : string
(** ["COMMX_INJECT_FAULTS"] — the environment fallback for
    [--inject-faults], honored by {!parse} and by the cmdliner path. *)

val with_env_fault_seed : opts -> opts
(** If [fault_seed] is unset, read it from {!fault_seed_env_var}
    (ignored when unset or non-integer). *)

val parse : string list -> (opts * string list, string) result
(** [parse argv] consumes the recognized [--flag value] /
    [--flag=value] / boolean [--flag] forms and returns the options
    (with the environment fallback applied) plus the remaining
    positional arguments in order.  Unknown [--flags], missing or
    malformed values, [jobs < 1], [retries < 0] and [timeout <= 0]
    are reported as [Error message]. *)

val usage : string
(** One-line synopsis of the shared flags, for usage messages. *)

val help_text : string
(** Multi-line flag reference: every shared flag with its default.
    Printed by both entry points on [--help]. *)

val telemetry_level : opts -> Telemetry.level
(** The {!Telemetry.level} the options imply: [Trace] when
    [trace_file] is set, otherwise [Metrics] when [metrics] or
    [json_dir] is set (schema-v3 artifacts embed a metrics object),
    otherwise [Off].  Both entry points use this so flags cannot mean
    different levels in different binaries. *)

val artifact_dir : opts -> string option
(** Where to write artifacts: [json_dir], else [resume_dir] —
    [--resume DIR] implies writing into [DIR] unless [--json] points
    elsewhere. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents.  Free of the
    check-then-create race: every level attempts [Unix.mkdir]
    unconditionally and treats [EEXIST] as success, so two concurrent
    runs creating the same fresh artifact directory both succeed.
    @raise Unix.Unix_error on real failures (permissions, missing
    filesystem, a non-directory in the path). *)
