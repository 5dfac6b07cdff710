(** Observability plane of the serve daemon: Prometheus text-format
    exposition, labeled instruments, and the per-request flight
    recorder behind the [dump_trace] op.

    {2 Labels}

    {!Commx_util.Telemetry} instruments are flat-named; Prometheus
    series carry labels.  The bridge is a naming convention:
    [{!labeled} "serve.op_us" [("op", "exact_cc"); ("outcome", "ok")]]
    interns the instrument under ["serve.op_us|op=exact_cc|outcome=ok"]
    and the renderer parses the ['|']-separated suffix back into
    labels, so one metric {e family} ([serve_op_us]) collects every
    combination.  Label values are escaped per the exposition format
    (backslash, double quote and newline); names are sanitized to
    [[a-zA-Z0-9_:]].

    {2 Exposition}

    {!render_metrics} turns counter/gauge/histogram snapshots into the
    Prometheus text format (version 0.0.4): [# HELP] / [# TYPE] per
    family, counters suffixed [_total], histograms as {e cumulative}
    [_bucket{le="..."}] series (the log-linear bucket bounds of
    {!Commx_util.Telemetry.histogram_summary} — exact up to 8, then 8
    per power of two — plus [le="+Inf"]) with [_sum] and [_count].

    {2 Flight recorder}

    A bounded ring of completed request traces (each a parented
    queue-wait -> search -> reply-write span chain built by the
    server).  Cheap when disabled (capacity 0: one load and branch);
    dumpable as Chrome trace-event JSON via the [dump_trace] op or
    {!Recorder.dump} on crash. *)

module Telemetry = Commx_util.Telemetry

val labeled : string -> (string * string) list -> string
(** [labeled base labels] is the flat instrument name encoding
    [labels]: [base ^ "|k=v|k2=v2"].  [base] and label keys must not
    contain ['|'] or ['=']; values may (the first ['='] splits). *)

val parse_name : string -> string * (string * string) list
(** Inverse of {!labeled}; a name with no ['|'] has no labels. *)

val metric_name : string -> string
(** Sanitize a telemetry name into a Prometheus metric name: every
    character outside [[a-zA-Z0-9_:]] becomes ['_'] (so
    ["serve.worker_crashes"] -> ["serve_worker_crashes"]), with a
    leading ['_'] prepended if the result would start with a digit. *)

val escape_label_value : string -> string
(** Exposition-format label-value escaping: backslash, double quote
    and newline. *)

val render_metrics :
  ?extra:string ->
  counters:(string * int) list ->
  gauges:(string * float) list ->
  histograms:(string * Telemetry.histogram_summary) list ->
  unit ->
  string
(** The full [GET /metrics] payload.  [?extra] is verbatim pre-rendered
    exposition text placed first (the server's direct series).
    Counters render as [<name>_total]; histogram buckets are
    cumulative and always end with [le="+Inf"] equal to [_count]. *)

(** {2 Per-op latency} *)

val observe_op : op:string -> outcome:string -> int -> unit
(** Record one request latency (microseconds) into the
    [serve.op_us{op, outcome}] histogram family.  No-op below
    [Metrics] level. *)

val merge_summaries :
  Telemetry.histogram_summary ->
  Telemetry.histogram_summary ->
  Telemetry.histogram_summary
(** Merge two summaries of one bucket layout: counts, sums and
    per-bucket counts add, min/max combine.  An empty side returns the
    other unchanged. *)

val op_summaries : unit -> (string * Telemetry.histogram_summary) list
(** Current per-op latency summaries merged across outcomes, sorted by
    op — the [ops] object of the [stats] reply (all merged into its
    [latency_us]) and the [ccmx top] per-op table. *)

(** {2 HTTP} *)

val http_response : ?status:int -> content_type:string -> string -> string
(** A complete minimal HTTP/1.0 response (status default 200) with
    [Content-Length] and [Connection: close]. *)

val http_path : string -> string option
(** The request target of an HTTP request head (["GET /metrics
    HTTP/1.1"] -> [Some "/metrics"]); [None] when the head is not a
    GET. *)

(** {2 Flight recorder} *)

module Recorder : sig
  type span = {
    name : string;
    id : int;
    parent : int;  (** 0 = root *)
    start_ns : int;  (** monotonic, {!Commx_util.Clock} epoch *)
    dur_ns : int;
    args : (string * string) list;
  }

  type t

  val create : capacity:int -> t
  (** A ring keeping the last [capacity] requests' span chains.
      [capacity = 0] disables recording entirely.
      @raise Invalid_argument when [capacity < 0]. *)

  val enabled : t -> bool

  val next_id : unit -> int
  (** Globally unique nonzero span id (shared across recorders). *)

  val record : t -> span list -> unit
  (** Append one completed request's spans, evicting the oldest
      request when full.  Safe from any domain. *)

  val spans : t -> span list
  (** Current contents, oldest request first. *)

  val to_chrome : t -> Commx_util.Json.t
  (** The ring as a Chrome trace-event document
      ([{"traceEvents": [...]}], [ph = "X"] complete events,
      microsecond timestamps, span/parent ids in [args]) — loadable in
      chrome://tracing or Perfetto, and the payload of the
      [dump_trace] op. *)

  val dump : t -> path:string -> unit
  (** Write {!to_chrome} to [path] atomically
      ({!Commx_util.Json.Atomic} temp+rename).  Used on worker crash
      and fatal exit. *)
end
