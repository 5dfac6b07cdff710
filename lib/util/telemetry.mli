(** Low-overhead tracing and metrics for the experiment runtime.

    The quantity this reproduction is {e about} — bits exchanged per
    protocol round — is computed exactly by the protocol channel, and
    the runtime already knows where wall-clock goes (pool batches,
    supervisor attempts, experiment phases).  This module makes both
    observable: span-based tracing on the monotonic {!Clock}, plus
    counters / gauges / histograms for the domain's first-class
    quantities, with two exporters — Chrome trace-event JSON (open in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}) and a
    human-readable end-of-run summary.

    {2 Design constraints}

    - {b Per-domain, lock-free hot path.}  Every domain accumulates
      into its own cells ([Domain.DLS]); the only global
      synchronization is a mutex taken once per domain at first use
      (registration) and once per instrument at interning.  {!Pool}
      workers never contend on a shared sink.
    - {b Nil sink when disabled.}  At {!level} [Off] every recording
      entry point is a single load-and-branch — no allocation, no DLS
      lookup.  Enable with [--trace] / [--metrics]; the default costs
      nothing measurable.
    - {b Schedule-invariant counters.}  Counters are summed integer
      deltas merged across domains, and every instrumented site is
      keyed by data (item index, site name), not by scheduling — so
      counter totals are bit-identical at any [--jobs], the same
      convention {!Faults} uses for its decision sites.  Span
      durations and gauges are wall-clock-ish and exempt.

    {2 Levels}

    [Off] records nothing.  [Metrics] records counters, gauges,
    histograms and phase durations.  [Trace] additionally records span
    events for the Chrome exporter.  Set the level before spawning
    worker domains (the flag is read with a plain atomic load; domain
    spawn publishes it). *)

type level = Off | Metrics | Trace

val set_level : level -> unit
(** Set the global recording level.  Call from the main domain before
    spawning pools. *)

val level : unit -> level

val metrics_on : unit -> bool
(** [true] at [Metrics] or [Trace]. *)

val tracing_on : unit -> bool
(** [true] at [Trace] only. *)

(** {1 Instruments}

    Instruments are interned by name: [counter "x"] twice returns the
    same instrument.  Intern at module-init or batch-setup time, not
    per event. *)

type counter

val counter : string -> counter
val add : counter -> int -> unit
(** Add a (possibly negative) integer delta.  No-op below [Metrics]. *)

val incr : counter -> unit

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
(** Last-write-wins across the whole process; use only from one domain
    at a time.  No-op below [Metrics]. *)

type histogram

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record one integer observation (bits in a message, items in a
    batch, a latency in microseconds).  Aggregated as count / sum /
    min / max plus log-linear buckets — exact up to 8, then 8
    sub-buckets per power of two — all order-invariant, so merged
    histograms are identical at any job count.  No-op below
    [Metrics]. *)

(** {1 Spans} *)

type span_id = private int

val null_span : span_id

val current_span : unit -> span_id
(** The innermost open span on {e this} domain, or {!null_span}.
    Capture it before fanning work out to parent child spans across
    domains. *)

val with_span :
  ?parent:span_id -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span.  Below [Trace] it is
    exactly [f ()].  [?parent] overrides the implicit parent (this
    domain's {!current_span}) — pass the captured id when the span
    logically nests under a span opened on another domain.  The span
    is closed (duration recorded) whether [f] returns or raises. *)

val annotate : (string * string) list -> unit
(** Append key/value args to this domain's innermost open span; no-op
    when tracing is off or no span is open.  Use for facts only known
    at exit (an outcome, a retry decision). *)

val with_phase : string -> (unit -> 'a) -> 'a
(** Phase accounting for experiment stages (generate / enumerate /
    verify).  At [Metrics] and above, accumulates the monotonic
    duration of [f] into a per-domain table keyed by [name] (drained
    with {!drain_phases}); at [Trace] it additionally opens a span
    named ["phase:" ^ name].  Below [Metrics] it is exactly [f ()]. *)

(** {1 Snapshots and draining}

    Reads merge every registered domain's cells.  Call at quiescent
    points (between pool batches / experiments); concurrent recording
    on other domains would be missed, not corrupted. *)

type histogram_summary = {
  count : int;
  sum : int;
  min : int;  (** meaningless when [count = 0] *)
  max : int;
  buckets : (int * int) list;
      (** [(le, n)]: [n] observations [v] with [v <= le], greater
          than the previous bucket bound; sorted ascending.  A bound
          exceeds every value in its bucket by less than 12.5%. *)
}

val summary_quantile : histogram_summary -> float -> float
(** [summary_quantile s p] estimates the [p]-th percentile
    ([p] in [[0, 100]], the {!Stats.percentile} convention) from the
    log-linear buckets: the upper bound of the bucket holding the
    nearest-rank order statistic [x] ([ceil (p/100 * count)], at least
    1), clamped into [[min, max]] so the estimate never exceeds an
    actually-observed value.  For positive observations the estimate
    lies in [[x, 1.125 x]].  An {b empty} summary returns
    [0.0] — never NaN, never an exception — matching the pinned
    [min]/[max] of [0] that {!metrics_to_json} reports for empty
    histograms. *)

val summarize : int list -> histogram_summary
(** The summary a histogram reports after observing exactly these
    values, built without touching any registered instrument. *)

val counters : unit -> (string * int) list
(** Merged counter totals, sorted by name.  Zero-valued counters are
    included once interned. *)

val gauges : unit -> (string * float) list

val histograms : unit -> (string * histogram_summary) list

val diff_counters :
  before:(string * int) list -> (string * int) list -> (string * int) list
(** [diff_counters ~before after] subtracts, keeping counters whose
    delta is nonzero — the per-experiment view between two
    {!counters} snapshots. *)

type event = {
  name : string;
  id : span_id;
  parent : span_id;
  tid : int;  (** numeric domain id the span ran on *)
  start_ns : int;  (** monotonic, {!Clock} epoch *)
  dur_ns : int;
  args : (string * string) list;
}

val drain_events : unit -> event list
(** Remove and return all buffered span events, across domains, sorted
    by start time.  Called by the harness after each experiment so the
    trace file can be written incrementally. *)

val drain_phases : unit -> (string * float) list
(** Remove and return accumulated phase durations (seconds), merged
    across domains, sorted by name. *)

val reset : unit -> unit
(** Zero every cell (counters, gauges, histograms, phases, events) on
    every registered domain.  Interned instruments stay valid.  For
    tests and for isolating consecutive runs in one process. *)

(** {1 Exporters} *)

val metrics_to_json : ?phases:(string * float) list -> unit -> Json.t
(** Current merged metrics as a JSON object:
    [{ "counters": {..}, "gauges": {..}, "histograms": {..},
       "wall_s_by_phase": {..} }].  Embedded in schema-v3 artifacts. *)

val print_summary : out_channel -> unit
(** Human-readable end-of-run dump of every interned instrument (the
    [--metrics] flag). *)

(** Incremental Chrome trace-event writer.

    Events stream into a uniquely-named sibling temp file as the run
    progresses ({!flush} after each experiment keeps the data on disk
    across a crash); {!close} completes the JSON and atomically
    renames it into place, while {!abort} — or {!close} racing an
    earlier abort — removes the temp file, so no half-written
    [*.tmp] survives a failed run.  Cleanup is shared with
    {!Json.to_file} via {!Json.Atomic}. *)
module Trace : sig
  type writer

  val open_file : path:string -> writer
  (** Create the temp sibling and write the trace-event preamble.
      Creates missing parent directories. *)

  val flush : writer -> event list -> unit
  (** Append events (as [ph = "X"] complete events, microsecond
      timestamps, span id/parent in [args]) and flush the channel. *)

  val close : writer -> unit
  (** Emit thread-name metadata, terminate the JSON document and
      rename it to [path].  Idempotent. *)

  val abort : writer -> unit
  (** Discard: close and delete the temp file.  Idempotent. *)

  val with_file : string option -> (flush:(unit -> unit) -> 'a) -> 'a
  (** [with_file path f] runs [f ~flush] with a writer on [path]:
      [flush ()] writes the events drained so far.  When [f] returns
      or raises, a final drain is flushed and the trace closed; if that
      final flush fails the writer is {!abort}ed and the exception
      re-raised.  With [None] nothing is written and [flush] just
      discards the drained events. *)
end
