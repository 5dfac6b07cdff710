(** Integer matrices.

    Structural operations come from [Matrix.Make] over ℤ; on top we add
    the integer-specific machinery the reproduction needs:

    - {!det_rank}: fraction-free Gaussian elimination (Bareiss 1968) of
      any shape, giving rank and determinant together; {!det_bareiss},
      {!is_singular} and {!rank} are its projections.  All intermediate
      values are exact integers (each is itself a minor of the input),
      avoiding rational blow-up.
    - {!hadamard_bound}: Hadamard's inequality, used to size the CRT
      prime ladder.
    - {!det_crt}: determinant by Chinese remaindering over word-size
      primes — the "fast path" benched against Bareiss in the ablation.
    - reductions mod p for the fingerprinting protocol. *)

module B = Commx_bigint.Bigint
module P = Commx_bigint.Primes
include Matrix.Make (Ring.Z)

let of_int_array2 a =
  let nrows = Array.length a in
  let ncols = if nrows = 0 then 0 else Array.length a.(0) in
  if Array.exists (fun r -> Array.length r <> ncols) a then
    invalid_arg "Zmatrix.of_int_array2: ragged";
  init nrows ncols (fun i j -> B.of_int a.(i).(j))

let of_int_fn rows cols f = init rows cols (fun i j -> B.of_int (f i j))

let to_qmatrix m = Qmatrix.of_bigint_fn (rows m) (cols m) (get m)

let random ?(signed = true) g ~rows:nr ~cols:nc ~bits =
  init nr nc (fun _ _ ->
      let v = B.random_bits g bits in
      if signed && Commx_util.Prng.bool g then B.neg v else v)

(** Uniform entries in [\[0, 2^k - 1\]] — the paper's input format for
    k-bit matrices. *)
let random_kbit g ~rows:nr ~cols:nc ~k = random ~signed:false g ~rows:nr ~cols:nc ~bits:k

(** Random matrix of *exactly* the requested rank: a random
    rank-[target] diagonal conjugated by unit triangular matrices with
    small entries (determinant ±1, so the rank is exact, not just an
    upper bound).  Entry magnitudes are not k-bit bounded — this is a
    workload generator for rank-sensitive tests and benches. *)
let random_of_rank g ~rows:nr ~cols:nc ~rank:target =
  if target < 0 || target > Stdlib.min nr nc then
    invalid_arg "Zmatrix.random_of_rank";
  let d =
    init nr nc (fun i j ->
        if i = j && i < target then
          B.of_int (1 + Commx_util.Prng.int g 9)
        else B.zero)
  in
  let unit_lower n =
    init n n (fun i j ->
        if i = j then B.one
        else if j < i then B.of_int (Commx_util.Prng.int_incl g (-2) 2)
        else B.zero)
  in
  let unit_upper n =
    init n n (fun i j ->
        if i = j then B.one
        else if j > i then B.of_int (Commx_util.Prng.int_incl g (-2) 2)
        else B.zero)
  in
  mul (unit_lower nr) (mul d (unit_upper nc))

(* ------------------------------------------------------------------ *)
(* Bareiss fraction-free elimination                                   *)
(* ------------------------------------------------------------------ *)

(** [det_rank m] is [(rank m, det m)] from one fraction-free echelon of
    [m], any shape.  The Bareiss recurrence
    [a'(i,j) = (p * a(i,j) - a(i,c) * a(r,j)) / prev_pivot], with [p]
    the pivot at [(r, c)], keeps every intermediate entry an exact
    integer minor of the input.  A column with no nonzero entry at or
    below row [r] has no pivot and is skipped, so the number of pivots
    is the rank.  The second component is the signed last pivot when
    [m] is square of full rank — its determinant — and zero otherwise
    (singular or not square). *)
let det_rank m =
  let nr = rows m and nc = cols m in
  let a = copy m in
  let sign = ref 1 and prev = ref B.one and r = ref 0 in
  for c = 0 to nc - 1 do
    if !r < nr then begin
      (* Pivot: any nonzero entry in column c at or below row r. *)
      let piv = ref !r in
      while !piv < nr && B.is_zero (get a !piv c) do
        incr piv
      done;
      if !piv < nr then begin
        if !piv <> !r then begin
          swap_rows a !r !piv;
          sign := - !sign
        end;
        let arc = get a !r c in
        for i = !r + 1 to nr - 1 do
          for j = c + 1 to nc - 1 do
            set a i j
              (B.div
                 (B.sub (B.mul arc (get a i j)) (B.mul (get a i c) (get a !r j)))
                 !prev)
          done;
          set a i c B.zero
        done;
        prev := arc;
        incr r
      end
    end
  done;
  let full = !r = nr && !r = nc in
  (!r, if not full then B.zero else if !sign < 0 then B.neg !prev else !prev)

(** [det_bareiss m] is the exact determinant, from {!det_rank}. *)
let det_bareiss m =
  if not (is_square m) then invalid_arg "Zmatrix.det_bareiss: not square";
  snd (det_rank m)

let det = det_bareiss

let is_singular m = B.is_zero (det_bareiss m)

let rank m = fst (det_rank m)

(* ------------------------------------------------------------------ *)
(* Batched Lemma 3.2 singularity                                       *)
(* ------------------------------------------------------------------ *)

module W = Commx_bigint.Modarith.Word

(* Determinant of [m] modulo a word prime, eliminated entirely in a
   word-size residue workspace checked out of [arena].  Unlike
   {!det_mod_p} (which instantiates the [Ring.Gfp] functor and boxes
   every residue), this touches the bignum layer only through
   [B.rem_int], so the whole elimination allocates nothing past the
   arena's steady state. *)
let det_word_mod arena mw m n =
  let p = W.to_int mw in
  let a = B.Arena.alloc arena (n * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      a.((i * n) + j) <- B.rem_int (get m i j) p
    done
  done;
  let det = ref 1 in
  (try
     for c = 0 to n - 1 do
       let piv = ref (-1) in
       let r = ref c in
       while !piv < 0 && !r < n do
         if a.((!r * n) + c) <> 0 then piv := !r;
         incr r
       done;
       if !piv < 0 then begin
         det := 0;
         raise Exit
       end;
       if !piv <> c then begin
         for j = c to n - 1 do
           let t = a.((c * n) + j) in
           a.((c * n) + j) <- a.((!piv * n) + j);
           a.((!piv * n) + j) <- t
         done;
         det := W.neg mw !det
       end;
       let pv = a.((c * n) + c) in
       det := W.mul mw !det pv;
       let pinv = W.inv mw pv in
       for r2 = c + 1 to n - 1 do
         let f = W.mul mw a.((r2 * n) + c) pinv in
         if f <> 0 then
           for j = c to n - 1 do
             a.((r2 * n) + j) <- W.sub mw a.((r2 * n) + j) (W.mul mw f a.((c * n) + j))
           done
       done
     done
   with Exit -> ());
  B.Arena.release arena a;
  !det

(* The two largest primes below 2^30 — the top of the same ladder
   {!det_crt} draws from.  Computed once per process, not per batch. *)
let batch_primes =
  lazy
    (let p1 = P.nth_prime_below 0 ((1 lsl 30) + 1) in
     let p2 = P.nth_prime_below 0 p1 in
     (W.modulus p1, W.modulus p2))

let singular_batch ms =
  Array.iter
    (fun m -> if not (is_square m) then invalid_arg "Zmatrix.singular_batch: not square")
    ms;
  let m1, m2 = Lazy.force batch_primes in
  let arena = B.Arena.create () in
  Array.map
    (fun m ->
      let n = rows m in
      (* A determinant that survives mod either prime certifies
         nonsingularity with zero bignum allocation; only matrices
         vanishing mod both escalate to the exact Bareiss determinant,
         which is the sole sound witness of singularity.  Random k-bit
         nonsingular matrices essentially never reach the exact path
         (that would need det divisible by two ~2^30 primes). *)
      if n = 0 then is_singular m
      else if det_word_mod arena m1 m n <> 0 then false
      else if det_word_mod arena m2 m n <> 0 then false
      else is_singular m)
    ms

(* ------------------------------------------------------------------ *)
(* Hadamard bound and CRT determinant                                  *)
(* ------------------------------------------------------------------ *)

(** [hadamard_bound m]: an integer H with |det m| <= H, from Hadamard's
    inequality |det| <= prod_i ||row_i||_2, computed without square
    roots as ceil over the product of row-norm squares. *)
let hadamard_bound m =
  if not (is_square m) then invalid_arg "Zmatrix.hadamard_bound";
  let n = rows m in
  if n = 0 then B.one
  else begin
    (* prod ||r_i||^2, then isqrt rounded up. *)
    let prod = ref B.one in
    for i = 0 to n - 1 do
      let s = ref B.zero in
      for j = 0 to n - 1 do
        let v = get m i j in
        s := B.add !s (B.mul v v)
      done;
      (* A zero row forces det = 0; bound 0 is fine. *)
      prod := B.mul !prod !s
    done;
    if B.is_zero !prod then B.zero else B.isqrt_ceil !prod
  end

(** Determinant modulo a word prime, via GF(p) elimination — O(n^3)
    word operations. *)
let det_mod_p m p =
  if not (is_square m) then invalid_arg "Zmatrix.det_mod_p";
  let module F =
    Ring.Gfp (struct
      let p = p
    end)
  in
  let module Mp = Matrix.Make_field (F) in
  let mp = Mp.init (rows m) (cols m) (fun i j -> F.of_bigint (get m i j)) in
  Mp.det mp

(** Rank modulo a word prime.  A lower bound on the true rank; equal to
    it for all but finitely many primes. *)
let rank_mod_p m p =
  let module F =
    Ring.Gfp (struct
      let p = p
    end)
  in
  let module Mp = Matrix.Make_field (F) in
  let mp = Mp.init (rows m) (cols m) (fun i j -> F.of_bigint (get m i j)) in
  Mp.rank mp

(** [det_crt m] computes the determinant by Chinese remaindering
    det mod p over enough word-size primes that the product of moduli
    exceeds twice the Hadamard bound, then lifting to the symmetric
    range. *)
let det_crt m =
  if not (is_square m) then invalid_arg "Zmatrix.det_crt";
  if rows m = 0 then B.one
  else begin
    let bound = B.add (B.shift_left (hadamard_bound m) 1) B.one in
    (* Collect primes descending from 2^30 until their product covers
       the bound. *)
    let residues = ref [] in
    let product = ref B.one in
    let p = ref ((1 lsl 30) + 1) in
    while B.compare !product bound <= 0 do
      p := P.nth_prime_below 0 !p;
      let r = det_mod_p m !p in
      residues := (B.of_int r, B.of_int !p) :: !residues;
      product := B.mul !product (B.of_int !p)
    done;
    let x, modulus = Commx_bigint.Modarith.crt !residues in
    (* Symmetric lift: values above modulus/2 are negative. *)
    let half = B.shift_right modulus 1 in
    if B.compare x half > 0 then B.sub x modulus else x
  end

(* ------------------------------------------------------------------ *)
(* Misc                                                                *)
(* ------------------------------------------------------------------ *)

(** Total number of bits needed to transmit the matrix when every entry
    is known to fit in [k] bits — the paper's input-size measure. *)
let encoding_bits m ~k = rows m * cols m * k

let max_entry_bits m =
  Array.fold_left
    (fun acc i -> Stdlib.max acc i)
    0
    (Array.init (rows m * cols m) (fun i ->
         B.bit_length (get m (i / cols m) (i mod cols m))))
