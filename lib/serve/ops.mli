(** The op layer: every compute op of the wire protocol, called by the
    serve daemon's workers and by [ccmx bench load]'s in-process
    target.  A reply's {e cacheable} fields are a pure function of the
    request; its {e per-request} fields ([nodes], [table_hits],
    [table_misses], [cache], [wall_us]) say how it was served, and
    their names are defined here only. *)

type fields = (string * Commx_util.Json.t) list

val content_key : Wire.request -> string option
(** Result-cache key of a compute request; [None] for ping, stats,
    shutdown and dump_trace.  Exact-CC boards are keyed by
    {!Commx_comm.Exact_cc.canonical_key}, every other op by its input. *)

val exec :
  table:Commx_util.Txtable.t ->
  key_tag:int ->
  ?cancel:Commx_util.Pool.Token.t ->
  Wire.request ->
  fields * fields
(** [(cacheable, per-request)] fields of a compute request.  Exact CC
    searches [table] under [key_tag] (one tag per canonical board, see
    {!Commx_comm.Exact_cc.search}) until [?cancel] fires.
    @raise Failure when the op rejects its input, with a message fit
    to send back.
    @raise Commx_comm.Exact_cc.Timed_out when [?cancel] fires.
    @raise Invalid_argument on ping, stats, shutdown and dump_trace. *)

val search_fields : nodes:int -> table_hits:int -> table_misses:int -> fields
val cache_field : string -> string * Commx_util.Json.t
val wall_us_field : int -> string * Commx_util.Json.t

val cacheable : Commx_util.Json.t -> fields
(** An ok reply's cacheable fields: all but [id], [op], [ok] and the
    per-request fields, in reply order. *)
