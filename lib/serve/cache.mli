(** Content-addressed result cache and table-tag registry of the serve
    daemon.

    The cache maps a content key — for exact-CC queries,
    {!Commx_comm.Exact_cc.canonical_key} of the board, so boards that
    differ only by duplicated lines or by majority-ones complementation
    alias — to the op-specific result fields of a
    finished request.  Bounded FIFO: at capacity the oldest entry is
    evicted.  All operations are mutex-protected; the acceptor and
    every worker domain hit the same instance.

    {!Tags} allocates the transposition-table key tags that let one
    process-wide set of warm {!Commx_util.Txtable} segments serve many
    distinct matrices: each distinct canonical key gets the next
    sequential tag, forever (tags are {e never} evicted — a table key
    salted with tag [t] must mean the same board for the lifetime of
    the table, snapshots included). *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val find : t -> string -> Commx_util.Json.t option
(** Lookup; records a hit or a miss. *)

val add : t -> string -> Commx_util.Json.t -> unit
(** Insert, evicting the oldest entry at capacity.  Re-adding an
    existing key replaces its value without consuming capacity. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats

val to_json : t -> Commx_util.Json.t
(** Entries oldest-first, so a load replays the same FIFO order. *)

val load : capacity:int -> Commx_util.Json.t -> t
(** Rebuild from {!to_json} output with fresh statistics.
    @raise Failure on malformed input. *)

module Tags : sig
  type t

  val create : unit -> t

  val tag : t -> string -> int
  (** The tag for a content key, allocating the next sequential one on
      first sight.
      @raise Failure if the {!Commx_comm.Exact_cc.max_key_tag} space is
      exhausted (2^30 distinct matrices). *)

  val count : t -> int

  val to_json : t -> Commx_util.Json.t

  val load : Commx_util.Json.t -> t
  (** Rebuild from {!to_json} output.  Saved key-to-tag bindings are
      preserved exactly — table snapshots embed these tags in their
      keys.
      @raise Failure on malformed input or duplicate tags. *)
end
