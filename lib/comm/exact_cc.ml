module Bm = Commx_util.Bitmat
module Bv = Commx_util.Bitvec
module Tx = Commx_util.Txtable
module Tel = Commx_util.Telemetry
module Pool = Commx_util.Pool

(* Submatrices are (row bitmask, column bitmask) pairs over the
   canonical matrix.  The recursion:

     C(R, S) = 0                         if R x S is monochromatic
     C(R, S) = 1 + min( min over proper nonempty R0 < R of
                          max (C(R0, S), C(R \ R0, S)),
                        min over proper nonempty S0 < S of
                          max (C(R, S0), C(R, S \ S0)) )

   A split by an agent is an arbitrary function of that agent's input,
   i.e. an arbitrary subset.  Splits (R0, R1) and (R1, R0) are the same
   protocol bit inverted, so we halve the enumeration by fixing the
   lowest set bit into R0.

   On top of the recursion sit four independent accelerations (all
   toggleable through [config], see the interface):

   - packed keys: a subproblem is [rmask lor (cmask lsl max_side)],
     one native int;
   - a transposition table ([Commx_util.Txtable]) with fail-soft
     entries: value [v lsl 1 lor 1] means "exactly v", value
     [v lsl 1] means "certified >= v" (learned from a bounded search
     that failed high);
   - canonicalization: duplicate rows/columns collapse to their
     lowest-index representative before lookup (an agent may treat
     equal inputs identically, so CC is invariant), and the input is
     complement-normalized (leaf colors swap, depth is unchanged);
   - cost pruning: every node seeds its incumbent with the trivial
     upper bound [ceil log2 (min side) + 1] (binary-subdivide the
     smaller side; one answer split), children are searched under
     [incumbent - 1] as a bound, the second child is skipped when the
     first already meets the incumbent, and the loop stops when the
     incumbent hits the node lower bound.  The root lower bound is
     certified from GF(2) ranks and a greedy fooling set: a depth-C
     protocol has at most 2^C leaves, at least [max(rank M, |fooling|)]
     of which are 1-leaves and at least [rank (complement M)] 0-leaves.

   Fail-soft invariant of [cc ... bound]: the result is
   [min (exact, bound)] — in particular any result [< bound] is exact.
   Entries of either kind stay valid across callers with different
   bounds, so the table is shared by the whole search. *)

let max_side = 20

(* Packed (rmask, cmask) keys occupy [2 * max_side] = 40 bits; a
   caller-supplied tag is shifted above them, and Txtable keys must
   stay within 62 bits — leaving 22 bits of tag space. *)
let key_tag_bits = 62 - (2 * max_side)
let max_key_tag = (1 lsl key_tag_bits) - 1

exception Too_large of { rows : int; cols : int; limit : int }

exception Timed_out of { lower : int; upper : int; nodes : int }

let () =
  Printexc.register_printer (function
    | Too_large { rows; cols; limit } ->
        Some
          (Printf.sprintf
             "Exact_cc.Too_large: truth matrix is %dx%d after \
              canonicalization (cap %dx%d)"
             rows cols limit limit)
    | Timed_out { lower; upper; nodes } ->
        Some
          (Printf.sprintf
             "Exact_cc.Timed_out: search cancelled after %d nodes (certified \
              %d <= CC <= %d)"
             nodes lower upper)
    | _ -> None)

type config = {
  table : bool;
  canonicalize : bool;
  prune : bool;
  portfolio : bool;
  table_budget : int option;
}

let default_config =
  { table = true; canonicalize = true; prune = true; portfolio = true;
    table_budget = None }

let reference_config =
  { table = false; canonicalize = false; prune = false; portfolio = false;
    table_budget = None }

type stats = {
  nodes : int;
  table_hits : int;
  table_misses : int;
  table_evictions : int;
  canon_rows : int;
  canon_cols : int;
  root_lower : int;
  root_upper : int;
}

let c_searches = Tel.counter "exact_cc.searches"
let c_nodes = Tel.counter "exact_cc.nodes"
let c_hits = Tel.counter "exact_cc.table_hits"
let c_misses = Tel.counter "exact_cc.table_misses"
let c_evictions = Tel.counter "exact_cc.table_evictions"
let c_root_pruned = Tel.counter "exact_cc.root_pruned"

(* Node expansions of work-stealing searches are schedule-dependent,
   so they accumulate into their own counter: [exact_cc.nodes] stays
   strictly jobs-invariant (sequential searches only) and remains the
   one the perf gate compares. *)
let c_steal_nodes = Tel.counter "exact_cc.steal_nodes"

(* Which root lower bound won (ties resolved in evaluation order). *)
let c_lb_rank = Tel.counter "exact_cc.lb_win|bound=rank_fooling"
let c_lb_logrank = Tel.counter "exact_cc.lb_win|bound=log_rank"
let c_lb_disc = Tel.counter "exact_cc.lb_win|bound=discrepancy"

(* Smallest k with 2^k >= n (n >= 1). *)
let ceil_log2 n =
  let k = ref 0 in
  while 1 lsl !k < n do incr k done;
  !k

(* A bound larger than any reachable cost, used when pruning is off so
   the bounded search degenerates to the plain exhaustive recursion. *)
let no_bound = 1 lsl 20

(* {2 Input canonicalization} *)

(* First occurrences of distinct rows (by full content), in order. *)
let distinct_rows m =
  let seen = Hashtbl.create 64 in
  let kept = ref [] in
  for i = 0 to Bm.rows m - 1 do
    let key = Bv.to_string (Bm.row m i) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      kept := i :: !kept
    end
  done;
  Array.of_list (List.rev !kept)

(* Collapse duplicate rows, then duplicate columns.  One pass each
   suffices: a removed line is a copy of a kept one, so removing it
   cannot make two distinct lines of the other kind equal. *)
let collapse_duplicates m =
  let rs = distinct_rows m in
  let m =
    if Array.length rs = Bm.rows m then m
    else Bm.submatrix m rs (Array.init (Bm.cols m) Fun.id)
  in
  let cs = distinct_rows (Bm.transpose m) in
  if Array.length cs = Bm.cols m then m
  else Bm.submatrix m (Array.init (Bm.rows m) Fun.id) cs

let complement_normalize m =
  let cells = Bm.rows m * Bm.cols m in
  if 2 * Bm.count_ones m > cells then Bm.complement m else m

(* {2 The search core} *)

type ctx = {
  rw : int array;  (* packed rows of the canonical matrix *)
  cw : int array;  (* packed columns *)
  cfg : config;
  tbl : Tx.t option;
  key_base : int;  (* key tag pre-shifted above the mask bits *)
  stats0 : Tx.stats option;  (* table counters at ctx creation *)
  buf : int array;  (* scratch for duplicate collapse, length max_side *)
  cancel : Pool.Token.t option;
  mutable nodes : int;
  mutable visits : int;  (* node entries, table hits included *)
}

(* [?ext] plugs in a caller-owned table (the serve daemon's warm
   per-domain segment) tagged so this matrix's subproblem keys cannot
   collide with another matrix's: entries learned now are found again
   by any later search of the same canonical matrix under the same
   tag.  Without it the table is private to this search, as before. *)
let mk_ctx ?ext ?cancel cfg rw cw =
  let tbl, key_base =
    match ext with
    | Some (t, tag) -> (Some t, tag lsl (2 * max_side))
    | None ->
        ( (if not cfg.table then None
           else
             Some
               (match cfg.table_budget with
               | None -> Tx.create ()
               | Some b -> Tx.create ~budget_entries:b ())),
          0 )
  in
  {
    rw;
    cw;
    cfg;
    tbl;
    key_base;
    stats0 = Option.map Tx.stats tbl;
    buf = Array.make max_side 0;
    cancel;
    nodes = 0;
    visits = 0;
  }

(* Cooperative cancellation: poll the token every 1024 node visits.
   Visits count table hits as well as expansions — a warm search
   serves long streaks of hits without expanding anything, which used
   to starve deadline polling entirely (the old counter advanced only
   on expansions).  At 1024 the granularity stays well under a
   millisecond on dense boards while the check costs one atomic load
   plus an occasional clock read. *)
let poll_interval_mask = 1023

let poll_cancel ctx =
  match ctx.cancel with
  | Some tok
    when ctx.visits land poll_interval_mask = 0 && Pool.Token.cancelled tok ->
      raise Pool.Cancelled
  | _ -> ()

(* Collapse duplicate rows of the (rmask, cmask) sub-board, then
   duplicate columns against the surviving rows.  As at input level,
   one pass each reaches the fixpoint. *)
let canon_masks ctx rmask cmask =
  let buf = ctx.buf in
  let rmask' = ref 0 and n = ref 0 in
  let rem = ref rmask in
  while !rem <> 0 do
    let low = !rem land - !rem in
    let key = ctx.rw.(Bv.popcount_int (low - 1)) land cmask in
    let dup = ref false in
    for k = 0 to !n - 1 do
      if buf.(k) = key then dup := true
    done;
    if not !dup then begin
      buf.(!n) <- key;
      incr n;
      rmask' := !rmask' lor low
    end;
    rem := !rem lxor low
  done;
  let rmask' = !rmask' in
  let cmask' = ref 0 and n = ref 0 in
  let rem = ref cmask in
  while !rem <> 0 do
    let low = !rem land - !rem in
    let key = ctx.cw.(Bv.popcount_int (low - 1)) land rmask' in
    let dup = ref false in
    for k = 0 to !n - 1 do
      if buf.(k) = key then dup := true
    done;
    if not !dup then begin
      buf.(!n) <- key;
      incr n;
      cmask' := !cmask' lor low
    end;
    rem := !rem lxor low
  done;
  (rmask', !cmask')

(* [cc ctx ~lb rmask cmask bound] = [min (exact CC of the sub-board,
   bound)].  [lb] is a certified lower bound for this node (1 for
   anything non-monochromatic; the root gets the rank/fooling bound). *)
let rec cc ctx ~lb rmask cmask bound =
  let rmask, cmask =
    if ctx.cfg.canonicalize then canon_masks ctx rmask cmask
    else (rmask, cmask)
  in
  if Bm.mono_masked ctx.rw ~rmask ~cmask >= 0 then 0
  else if bound <= 1 then bound
  else begin
    ctx.visits <- ctx.visits + 1;
    poll_cancel ctx;
    let key = ctx.key_base lor rmask lor (cmask lsl max_side) in
    let cached_exact = ref (-1) in
    let cached_lb = ref 1 in
    (match ctx.tbl with
    | None -> ()
    | Some tbl ->
        let c = Tx.find tbl key in
        if c >= 0 then
          if c land 1 = 1 then cached_exact := c lsr 1
          else cached_lb := max !cached_lb (c lsr 1));
    if !cached_exact >= 0 then min !cached_exact bound
    else if !cached_lb >= bound then bound
    else begin
      ctx.nodes <- ctx.nodes + 1;
      let prune = ctx.cfg.prune in
      let node_lb = max lb !cached_lb in
      let bound_eff = if prune then bound else no_bound in
      let best =
        ref
          (if prune then
             let pr = Bv.popcount_int rmask and pc = Bv.popcount_int cmask in
             min bound (ceil_log2 (min pr pc) + 1)
           else no_bound)
      in
      let low_r = rmask land -rmask in
      let sub = ref rmask in
      while !sub > 0 && ((not prune) || !best > node_lb) do
        if !sub <> rmask && !sub land low_r <> 0 then
          eval_split ctx best !sub cmask (rmask lxor !sub) cmask;
        sub := (!sub - 1) land rmask
      done;
      let low_c = cmask land -cmask in
      let sub = ref cmask in
      while !sub > 0 && ((not prune) || !best > node_lb) do
        if !sub <> cmask && !sub land low_c <> 0 then
          eval_split ctx best rmask !sub rmask (cmask lxor !sub);
        sub := (!sub - 1) land cmask
      done;
      (match ctx.tbl with
      | None -> ()
      | Some tbl ->
          if !best < bound_eff then Tx.set tbl key ((!best lsl 1) lor 1)
          else Tx.set tbl key (bound_eff lsl 1));
      !best
    end
  end

(* Evaluate one split (two child boards) against the incumbent. *)
and eval_split ctx best r0 c0 r1 c1 =
  if ctx.cfg.prune then begin
    let a = cc ctx ~lb:1 r0 c0 (!best - 1) in
    if a + 1 < !best then begin
      let b = cc ctx ~lb:1 r1 c1 (!best - 1) in
      let cost = 1 + max a b in
      if cost < !best then best := cost
    end
  end
  else begin
    let a = cc ctx ~lb:1 r0 c0 no_bound in
    let b = cc ctx ~lb:1 r1 c1 no_bound in
    let cost = 1 + max a b in
    if cost < !best then best := cost
  end

(* {2 Root bounds}

   Every member bounds the leaf count of a depth-C protocol: at most
   2^C leaves, all monochromatic rectangles. *)

(* 1-leaves >= max (GF(2) rank, greedy fooling set), 0-leaves >= GF(2)
   rank of the complement. *)
let rank_fooling_lower m =
  let r1 = Rank_bound.gf2_rank m in
  let r0 = Rank_bound.gf2_rank (Bm.complement m) in
  let fool = List.length (Fooling.greedy_bitmat m) in
  ceil_log2 (max r1 fool + r0)

(* Mehlhorn–Schmidt over ℚ, both colors: the 1-leaves sum to M as
   rank-1 rational matrices, so 1-leaves >= rank_Q M; the 0-leaves sum
   to the complement likewise.  Rational rank dominates GF(2) rank, so
   this frequently beats [rank_fooling_lower].  [rational_rank] is a
   native-int Bareiss elimination on boards up to side 22, so the cost
   is a few microseconds, not exact rational arithmetic. *)
let log_rank_lower m =
  ceil_log2
    (Rank_bound.rational_rank m + Rank_bound.rational_rank (Bm.complement m))

(* Discrepancy: every monochromatic rectangle R satisfies
   [|ones R - zeros R| = |R|], so cells = sum |leaf| <= 2^C * disc *
   cells, i.e. C >= log2 (1/disc).  The epsilon absorbs float noise in
   the direction of soundness (rounding the bound down). *)
let discrepancy_lower m =
  let disc = Discrepancy.discrepancy_exact m in
  if disc <= 0.0 then 0
  else
    max 0
      (int_of_float (Float.ceil ((-.Float.log disc /. Float.log 2.0) -. 1e-9)))

(* All portfolio members of an arbitrary matrix, each individually a
   certified lower bound on its exact CC (property-tested by [ccmx
   check exact_cc.lb_portfolio_sound]).  Computed on the canonical
   matrix — CC-invariant, and what the engine itself bounds. *)
let portfolio_members = [ "rank_fooling"; "log_rank"; "discrepancy" ]

let lower_bound_portfolio m =
  if Bm.rows m = 0 || Bm.cols m = 0 then
    List.map (fun n -> (n, 0)) portfolio_members
  else
    let m' = complement_normalize (collapse_duplicates m) in
    if Bm.count_ones m' = 0 then
      (* monochromatic (complement-normalized to all-zero): CC is 0 *)
      List.map (fun n -> (n, 0)) portfolio_members
    else
      [ ("rank_fooling", max 1 (rank_fooling_lower m'));
        ("log_rank", log_rank_lower m');
        ("discrepancy", discrepancy_lower m') ]

(* The engine's root bound: members evaluated cheapest-first, stopping
   as soon as [ub] is reached (a tighter bound cannot change the
   outcome).  The telemetry counter of the member that produced the
   final bound records which bound won at this root. *)
let certified_lower ~portfolio ~ub m =
  let best = ref (max 1 (rank_fooling_lower m)) in
  let win = ref c_lb_rank in
  if portfolio && !best < ub then begin
    let lr = log_rank_lower m in
    if lr > !best then begin
      best := lr;
      win := c_lb_logrank
    end;
    if !best < ub then begin
      let d = discrepancy_lower m in
      if d > !best then begin
        best := d;
        win := c_lb_disc
      end
    end
  end;
  Tel.incr !win;
  !best

(* {2 Drivers} *)

type prepared = {
  rwp : int array;
  cwp : int array;
  full_r : int;
  full_c : int;
  cnr : int;
  cnc : int;
  canon : Bm.t;
}

let prepare cfg m =
  let m' =
    if cfg.canonicalize then complement_normalize (collapse_duplicates m)
    else m
  in
  let cnr = Bm.rows m' and cnc = Bm.cols m' in
  if cnr > max_side || cnc > max_side then
    raise (Too_large { rows = cnr; cols = cnc; limit = max_side });
  {
    rwp = Bm.packed_rows m';
    cwp = Bm.packed_cols m';
    full_r = (1 lsl cnr) - 1;
    full_c = (1 lsl cnc) - 1;
    cnr;
    cnc;
    canon = m';
  }

let stats_of ctx ~cnr ~cnc ~root_lower ~root_upper =
  (* Against a shared warm table, counters are deltas over this
     search; for a fresh private table the baseline is zero and the
     subtraction is the identity. *)
  let hits, misses, evictions =
    match (ctx.tbl, ctx.stats0) with
    | Some t, Some s0 ->
        let s = Tx.stats t in
        ( s.Tx.hits - s0.Tx.hits,
          s.Tx.misses - s0.Tx.misses,
          s.Tx.evictions - s0.Tx.evictions )
    | _ -> (0, 0, 0)
  in
  {
    nodes = ctx.nodes;
    table_hits = hits;
    table_misses = misses;
    table_evictions = evictions;
    canon_rows = cnr;
    canon_cols = cnc;
    root_lower;
    root_upper;
  }

let leaf_stats ~cnr ~cnc ~root_lower ~root_upper =
  {
    nodes = 0;
    table_hits = 0;
    table_misses = 0;
    table_evictions = 0;
    canon_rows = cnr;
    canon_cols = cnc;
    root_lower;
    root_upper;
  }

(* Fan out only when the root move list dwarfs the pooling overhead
   (each worker pays for its own transposition table): 512 moves means
   a canonical board of at least ten rows or columns. *)
let parallel_move_threshold = 512

(* A root move packs one child of a root split: bit 0 selects the side
   (0 = row split, 1 = column split), the chosen submask sits above,
   in the sequential search's enumeration order. *)
let enumerate_root_moves p =
  let n = (1 lsl (p.cnr - 1)) + (1 lsl (p.cnc - 1)) - 2 in
  let moves = Array.make n 0 in
  let k = ref 0 in
  let low_r = p.full_r land -p.full_r in
  let sub = ref p.full_r in
  while !sub > 0 do
    if !sub <> p.full_r && !sub land low_r <> 0 then begin
      moves.(!k) <- !sub lsl 1;
      incr k
    end;
    sub := (!sub - 1) land p.full_r
  done;
  let low_c = p.full_c land -p.full_c in
  let sub = ref p.full_c in
  while !sub > 0 do
    if !sub <> p.full_c && !sub land low_c <> 0 then begin
      moves.(!k) <- (!sub lsl 1) lor 1;
      incr k
    end;
    sub := (!sub - 1) land p.full_c
  done;
  assert (!k = n);
  moves

let split_of_move p mv =
  let sub = mv lsr 1 in
  if mv land 1 = 0 then (sub, p.full_c, p.full_r lxor sub, p.full_c)
  else (p.full_r, sub, p.full_r, p.full_c lxor sub)

(* {3 The pooled driver: per-domain deques + a shared atomic incumbent}

   One deque of root moves per pool worker (seeded stride-wise so every
   deque starts with a spread of the list); the owner pops blocks from
   one end, domains that run dry steal blocks from the other end of a
   victim's deque.  The incumbent is a single atomic: an improvement
   found by any domain tightens every other domain's window on its
   very next move.  Each worker carries its own transposition-table
   segment for the whole search — the serve daemon's per-worker
   segment design — so subtree results warm across every root move
   the domain executes, own or stolen.

   Returned values are schedule-invariant: a move is only recorded
   when its cost was proved strictly below the bound its children were
   searched under (fail-soft), and bounds only ever tighten, so the
   final incumbent is [min ub (true minimum)] regardless of
   interleaving.  Node counts DO depend on timing — pooled statistics
   feed [exact_cc.steal_nodes], not the jobs-invariant counters. *)
let steal_block = 32

type deque = {
  dm : Mutex.t;
  dq : int array;
  mutable lo : int;  (* thieves take from [lo] *)
  mutable hi : int;  (* the owner takes below [hi] *)
}

let deque_take dq k out =
  Mutex.lock dq.dm;
  let n = min k (dq.hi - dq.lo) in
  let base = dq.hi - n in
  Array.blit dq.dq base out 0 n;
  dq.hi <- base;
  Mutex.unlock dq.dm;
  n

let deque_steal dq k out =
  Mutex.lock dq.dm;
  let n = min k (dq.hi - dq.lo) in
  Array.blit dq.dq dq.lo out 0 n;
  dq.lo <- dq.lo + n;
  Mutex.unlock dq.dm;
  n

let rec relax_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then relax_min a v

(* Evaluate one root move against the shared incumbent.  The cost is
   recorded only when strictly below the bound [w] its second child
   was searched under — a truncated (fail-soft) child yields
   [cost >= w], which is correctly discarded — so a stale incumbent
   read can only cost work, never correctness. *)
let eval_move_shared ctx shared ~prune p mv =
  let r0, c0, r1, c1 = split_of_move p mv in
  if prune then begin
    let cur = Atomic.get shared in
    let a = cc ctx ~lb:1 r0 c0 (cur - 1) in
    if a + 1 < cur then begin
      (* refresh: another domain may have tightened the incumbent
         while the first child was being searched *)
      let w = min cur (Atomic.get shared) in
      if a + 1 < w then begin
        let b = cc ctx ~lb:1 r1 c1 (w - 1) in
        let cost = 1 + max a b in
        if cost < w then relax_min shared cost
      end
    end
  end
  else begin
    let a = cc ctx ~lb:1 r0 c0 no_bound in
    let b = cc ctx ~lb:1 r1 c1 no_bound in
    relax_min shared (1 + max a b)
  end

let run_steal cfg pool ?cancel p ~lb ~ub =
  let moves = enumerate_root_moves p in
  let nm = Array.length moves in
  let nw = Pool.jobs pool in
  let seed = if cfg.prune then ub else no_bound in
  let shared = Atomic.make seed in
  let deques =
    Array.init nw (fun w ->
        let cnt = (nm - w + nw - 1) / nw in
        let arr = Array.init cnt (fun i -> moves.(w + (i * nw))) in
        { dm = Mutex.create (); dq = arr; lo = 0; hi = cnt })
  in
  let results =
    Pool.parallel_map pool ?cancel ~chunk:1
      (fun w ->
        let ctx = mk_ctx ?cancel cfg p.rwp p.cwp in
        let buf = Array.make steal_block 0 in
        let running = ref true in
        while !running do
          (match cancel with
          | Some tok when Pool.Token.cancelled tok -> raise Pool.Cancelled
          | _ -> ());
          let n = deque_take deques.(w) steal_block buf in
          let n =
            if n > 0 then n
            else begin
              (* own deque dry: steal from the first victim with work *)
              let got = ref 0 in
              let v = ref 1 in
              while !got = 0 && !v < nw do
                got := deque_steal deques.((w + !v) mod nw) steal_block buf;
                incr v
              done;
              !got
            end
          in
          if n = 0 then running := false
          else
            for i = 0 to n - 1 do
              if (not cfg.prune) || Atomic.get shared > lb then
                eval_move_shared ctx shared ~prune:cfg.prune p buf.(i)
            done
        done;
        stats_of ctx ~cnr:p.cnr ~cnc:p.cnc ~root_lower:lb ~root_upper:ub)
      (Array.init nw Fun.id)
  in
  ( Atomic.get shared,
    Array.fold_left
      (fun (acc : stats) (s : stats) ->
        {
          acc with
          nodes = acc.nodes + s.nodes;
          table_hits = acc.table_hits + s.table_hits;
          table_misses = acc.table_misses + s.table_misses;
          table_evictions = acc.table_evictions + s.table_evictions;
        })
      (leaf_stats ~cnr:p.cnr ~cnc:p.cnc ~root_lower:lb ~root_upper:ub)
      results )

(* Feed a finished search's statistics into the jobs-invariant
   counters.  The pooled driver's statistics depend on the schedule, so
   [run] sends those to [exact_cc.steal_nodes] instead. *)
let publish (st : stats) =
  Tel.incr c_searches;
  Tel.add c_nodes st.nodes;
  Tel.add c_hits st.table_hits;
  Tel.add c_misses st.table_misses;
  Tel.add c_evictions st.table_evictions

let run cfg pool ext cancel m =
  let finish v st =
    publish st;
    (v, st)
  in
  if Bm.rows m = 0 || Bm.cols m = 0 then
    finish 0
      (leaf_stats ~cnr:(Bm.rows m) ~cnc:(Bm.cols m) ~root_lower:0 ~root_upper:0)
  else begin
    let p = prepare cfg m in
    let ub = ceil_log2 (min p.cnr p.cnc) + 1 in
    if Bm.mono_masked p.rwp ~rmask:p.full_r ~cmask:p.full_c >= 0 then
      finish 0 (leaf_stats ~cnr:p.cnr ~cnc:p.cnc ~root_lower:0 ~root_upper:ub)
    else begin
      let lb =
        if cfg.prune then certified_lower ~portfolio:cfg.portfolio ~ub p.canon
        else 1
      in
      if cfg.prune && lb >= ub then begin
        Tel.incr c_root_pruned;
        finish ub
          (leaf_stats ~cnr:p.cnr ~cnc:p.cnc ~root_lower:lb ~root_upper:ub)
      end
      else begin
        let n_moves = (1 lsl (p.cnr - 1)) + (1 lsl (p.cnc - 1)) - 2 in
        match pool with
        (* A shared external table cannot be split across domains
           (Txtable is not thread-safe), so its presence forces the
           sequential path regardless of the pool. *)
        | Some pool when n_moves >= parallel_move_threshold && ext = None -> (
            match run_steal cfg pool ?cancel p ~lb ~ub with
            | v, st ->
                Tel.incr c_searches;
                Tel.add c_steal_nodes st.nodes;
                (v, st)
            | exception Pool.Cancelled ->
                (* Per-worker node counts die with their domains; the
                   certified root bounds survive. *)
                raise (Timed_out { lower = lb; upper = ub; nodes = 0 }))
        | _ -> (
            let ctx = mk_ctx ?ext ?cancel cfg p.rwp p.cwp in
            let bound = if cfg.prune then ub else no_bound in
            match cc ctx ~lb p.full_r p.full_c bound with
            | v ->
                finish v
                  (stats_of ctx ~cnr:p.cnr ~cnc:p.cnc ~root_lower:lb
                     ~root_upper:ub)
            | exception Pool.Cancelled ->
                (* Report the best certified answer the partial search
                   left behind.  The root entry of a warm table (same
                   tag, earlier completed search) may even be exact —
                   then the deadline lost the race with the answer and
                   we return it; otherwise a lower-bound entry can
                   tighten the rank/fooling root bound. *)
                let root_r, root_c =
                  if cfg.canonicalize then canon_masks ctx p.full_r p.full_c
                  else (p.full_r, p.full_c)
                in
                let exact = ref (-1) in
                let lower = ref lb in
                (match ctx.tbl with
                | None -> ()
                | Some tbl ->
                    let key =
                      ctx.key_base lor root_r lor (root_c lsl max_side)
                    in
                    let c = Tx.find tbl key in
                    if c >= 0 then
                      if c land 1 = 1 then exact := c lsr 1
                      else lower := max !lower (c lsr 1));
                if !exact >= 0 then
                  finish !exact
                    (stats_of ctx ~cnr:p.cnr ~cnc:p.cnc ~root_lower:lb
                       ~root_upper:ub)
                else begin
                  (* The partial work still counts toward telemetry:
                     the nodes were expanded and the table entries are
                     live for the next attempt. *)
                  publish
                    (stats_of ctx ~cnr:p.cnr ~cnc:p.cnc ~root_lower:!lower
                       ~root_upper:ub);
                  raise
                    (Timed_out
                       { lower = !lower; upper = ub; nodes = ctx.nodes })
                end)
      end
    end
  end

let search ?(config = default_config) ?pool ?table ?(key_tag = 0) ?cancel m =
  if key_tag < 0 || key_tag > max_key_tag then
    invalid_arg
      (Printf.sprintf "Exact_cc.search: key_tag %d out of [0, %d]" key_tag
         max_key_tag);
  let ext = Option.map (fun t -> (t, key_tag)) table in
  run config pool ext cancel m

let complexity m = fst (search m)
let complexity_tm tm = complexity (Truth_matrix.to_bitmat tm)

(* Canonical board dimensions without running the search: what the
   serve daemon's admission check sizes an [exact_cc] request by.
   Collapse is enough — complement normalization never changes the
   shape. *)
let canonical_dims m =
  let m' = collapse_duplicates m in
  (Bm.rows m', Bm.cols m')

(* Content address of the canonical board: what the serve daemon keys
   its result cache and its table-tag registry on.  Two inputs get the
   same key exactly when the engine would search the same canonical
   matrix — duplicate rows/columns and complementation included. *)
let canonical_key m =
  let m' = complement_normalize (collapse_duplicates m) in
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "%dx%d:" (Bm.rows m') (Bm.cols m'));
  for i = 0 to Bm.rows m' - 1 do
    if i > 0 then Buffer.add_char b '.';
    Buffer.add_string b (Bv.to_string (Bm.row m' i))
  done;
  Buffer.contents b

let optimal_is_sandwiched m =
  let exact = complexity m in
  let nr = Bm.rows m and nc = Bm.cols m in
  let cover = Rectangle.cover_lower_bound m ~exact:(min nr nc <= 20) in
  let log_rank = Rank_bound.log_rank_bound m in
  (* With the tree-depth cost model a depth-C protocol has at most 2^C
     leaves, all monochromatic rectangles, so C >= log2 d(f) >= cover
     and C >= log2 rank — no additive slack beyond float noise. *)
  let trivial_upper =
    (* one agent ships its whole index: ceil log2 of its side, plus the
       answer bit *)
    let bits x = int_of_float (ceil (log (float_of_int (max 2 x)) /. log 2.0)) in
    1 + min (bits nr) (bits nc)
  in
  float_of_int exact >= cover -. 1e-9
  && float_of_int exact >= log_rank -. 1e-9
  && exact <= trivial_upper
