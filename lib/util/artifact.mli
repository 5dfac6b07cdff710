(** Schema-v3 [BENCH_<id>.json] experiment artifacts.

    One writer for both entry points ([bench/main.exe] and
    [ccmx lemmas]) so field names, status vocabulary and resume
    semantics stay identical.  Version history:

    - v1: title / params / rows / fits measurement payload
    - v2: + status / error / attempts supervision metadata
    - v3: + [metrics] object — [bits_total] (the paper's quantity:
      total bits through protocol channels during the experiment),
      [wall_s_by_phase] (generate / enumerate / verify breakdown) and
      [counters] (per-experiment deltas of every {!Telemetry} counter).

    All writes go through {!Json.to_file} and are atomic (unique temp
    sibling + rename). *)

val schema_version : int
(** [3] *)

val path : dir:string -> id:string -> string
(** [dir/BENCH_<id>.json] *)

val metrics :
  counters:(string * int) list -> phases:(string * float) list -> Json.t
(** Build the v3 [metrics] object from per-experiment counter deltas
    ({!Telemetry.diff_counters}) and drained phase durations.
    [bits_total] is lifted out of the ["channel.bits_total"] counter
    (0 when the experiment executed no protocol). *)

val metrics_since : before:(string * int) list -> Json.t option
(** The [metrics] object of a run that began at the {!Telemetry.counters}
    snapshot [before]: counter deltas since then plus the drained phase
    durations.  [None] when telemetry is off. *)

val write :
  dir:string ->
  id:string ->
  jobs:int ->
  wall_s:float ->
  attempts:int ->
  status:string ->
  error:Json.t ->
  ?metrics:Json.t ->
  report_fields:(string * Json.t) list ->
  unit ->
  unit
(** Write [dir/BENCH_<id>.json] atomically, creating [dir] if needed.
    [report_fields] carries the measurement payload (title / params /
    rows / fits — nulled out by callers for non-ok outcomes);
    [metrics] defaults to [Null] when telemetry was off. *)

val resume_done : dir:string -> id:string -> bool
(** Does a valid artifact with [status = "ok"] exist for [id] in
    [dir]?  Malformed or non-ok artifacts (from killed or failed runs)
    answer [false] and the experiment re-executes.  Any schema version
    counts — an older ok artifact still certifies completion. *)
