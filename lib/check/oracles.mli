(** Independent reference implementations the fuzzer diffs against.

    Each oracle recomputes a quantity the optimized stack produces, by
    the most naive means available — per-bit loops where the kernels
    use SWAR words, cofactor expansion where {!Commx_linalg.Zmatrix}
    uses Bareiss/CRT, a hash-table model where {!Commx_util.Txtable}
    uses open addressing.  Slow on purpose: sharing code (or cleverness)
    with the implementation under test would share its bugs. *)

val popcount_int_naive : int -> int
(** Bit-at-a-time popcount of a non-negative native int. *)

val bitvec_bools : Commx_util.Bitvec.t -> bool array
(** The vector as a plain bool array (via per-index [get]). *)

val mono_masked_naive :
  Commx_util.Bitmat.t -> rmask:int -> cmask:int -> int
(** Per-entry reimplementation of {!Commx_util.Bitmat.mono_masked}
    ([0] all zeros, [1] all ones, [-1] mixed, empty = [0]). *)

val count_ones_naive : Commx_util.Bitmat.t -> int

val det_cofactor : Commx_linalg.Zmatrix.t -> Commx_bigint.Bigint.t
(** Determinant by first-row cofactor expansion — O(n!), fine for the
    tiny matrices the fuzzer draws.
    @raise Invalid_argument on non-square input. *)

(** {2 List-based lower-bound members}

    The fooling-set and exact-rectangle searches as they were before
    {!Commx_comm.Fooling} and {!Commx_comm.Rectangle} became word-level
    kernels: pair lists tested through per-cell accessors, and one list,
    array and {!Commx_util.Bitvec.copy} per row subset.  The kernels
    must return exactly what these do. *)

val fooling_greedy : ('a, 'b) Commx_comm.Truth_matrix.t -> Commx_comm.Fooling.t

val fooling_greedy_randomized :
  Commx_util.Prng.t ->
  ?restarts:int ->
  ('a, 'b) Commx_comm.Truth_matrix.t ->
  Commx_comm.Fooling.t
(** Same PRNG draws as {!Commx_comm.Fooling.greedy_randomized}. *)

val max_one_rectangle_exact :
  ?min_rows:int -> Commx_util.Bitmat.t -> Commx_comm.Rectangle.rect
(** Enumerates {!Commx_util.Combi.iter_subsets}, so it raises
    [Invalid_argument] past 20 enumerated lines. *)

val cover_lower_bound_exact : Commx_util.Bitmat.t -> float
(** {!Commx_comm.Rectangle.cover_lower_bound} [~exact:true] from the
    reference rectangles. *)

(** Association model of {!Commx_util.Txtable}: last write wins, no
    capacity, no eviction.  An unbudgeted table must agree exactly; a
    budgeted table must be {e fail-soft} against it (absent or equal,
    never a wrong value). *)
module Table_model : sig
  type t

  val create : unit -> t
  val set : t -> int -> int -> unit

  val find : t -> int -> int
  (** [-1] when absent, like the real table. *)

  val length : t -> int
  val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
end
