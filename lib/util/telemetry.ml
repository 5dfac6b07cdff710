(* Tracing and metrics.  Hot-path discipline: every recording entry
   point starts with one atomic load and a branch; below the active
   level nothing is allocated and the DLS is not touched.  When
   recording, a domain writes only into its own cells (registered
   once, on the domain's first recording), so pool workers never
   contend — merging happens on demand, at quiescent points, under the
   registry mutex.

   Counters and histograms hold integer sums/mins/maxes, which merge
   order-invariantly: totals are bit-identical at any job count as
   long as the instrumented sites themselves are schedule-invariant
   (the Faults convention).  Span durations, gauges and phase times
   are wall-clock measurements and carry no such guarantee. *)

type level = Off | Metrics | Trace

(* 0 / 1 / 2; a plain atomic so hot paths pay one load. *)
let level_cell = Atomic.make 0

let set_level l =
  Atomic.set level_cell (match l with Off -> 0 | Metrics -> 1 | Trace -> 2)

let level () =
  match Atomic.get level_cell with 0 -> Off | 1 -> Metrics | _ -> Trace

let metrics_on () = Atomic.get level_cell > 0
let tracing_on () = Atomic.get level_cell > 1

(* ------------------------------------------------------------------ *)
(* Instrument registries (interning)                                   *)
(* ------------------------------------------------------------------ *)

type counter = int
type gauge = int
type histogram = int

let reg_mutex = Mutex.create ()

type registry = {
  names : (string, int) Hashtbl.t;
  mutable order : string list;  (* reverse interning order *)
  mutable count : int;
}

let fresh_registry () = { names = Hashtbl.create 16; order = []; count = 0 }
let counters_reg = fresh_registry ()
let gauges_reg = fresh_registry ()
let histograms_reg = fresh_registry ()

let intern reg name =
  Mutex.lock reg_mutex;
  let id =
    match Hashtbl.find_opt reg.names name with
    | Some id -> id
    | None ->
        let id = reg.count in
        reg.count <- id + 1;
        reg.order <- name :: reg.order;
        Hashtbl.add reg.names name id;
        id
  in
  Mutex.unlock reg_mutex;
  id

let counter name = intern counters_reg name
let gauge name = intern gauges_reg name
let histogram name = intern histograms_reg name

(* Registry names as an array indexed by id; call under reg_mutex. *)
let names_of reg =
  let a = Array.make reg.count "" in
  List.iteri (fun i name -> a.(reg.count - 1 - i) <- name) reg.order;
  a

(* ------------------------------------------------------------------ *)
(* Per-domain cells                                                    *)
(* ------------------------------------------------------------------ *)

(* Log-linear histogram buckets, 8 per power of two.  Values <= 8 are
   exact: slot [v] (negatives in slot 0).  Above that, [x = v - 1] with
   top bit [k] lands in slot [8(k-2) + sub + 1], [sub] being the three
   bits below the top one; the slot's upper bound [(9 + sub) * 2^(k-3)]
   exceeds any value it holds by less than 12.5%.  481 slots cover every
   OCaml int. *)
let hist_slots = 481

type hist_cell = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  slots : int array;
}

let fresh_hist_cell () =
  { h_count = 0; h_sum = 0; h_min = max_int; h_max = min_int;
    slots = Array.make hist_slots 0 }

let slot_of v =
  if v <= 8 then max v 0
  else begin
    let x = v - 1 in
    let k = ref 3 in
    while x lsr (!k + 1) > 0 do
      incr k
    done;
    (8 * (!k - 2)) + ((x lsr (!k - 3)) land 7) + 1
  end

(* Inclusive upper bound of slot [s]; the last slot's would overflow. *)
let slot_bound s =
  if s <= 8 then s
  else if s = hist_slots - 1 then max_int
  else (9 + ((s - 1) mod 8)) lsl (((s - 1) / 8) - 1)

let record cell v =
  cell.h_count <- cell.h_count + 1;
  cell.h_sum <- cell.h_sum + v;
  if v < cell.h_min then cell.h_min <- v;
  if v > cell.h_max then cell.h_max <- v;
  let s = slot_of v in
  cell.slots.(s) <- cell.slots.(s) + 1

type span_id = int

let null_span = 0

type frame = {
  f_name : string;
  f_id : span_id;
  f_parent : span_id;
  f_start_ns : int;
  mutable f_args : (string * string) list;  (* reverse append order *)
}

type event = {
  name : string;
  id : span_id;
  parent : span_id;
  tid : int;
  start_ns : int;
  dur_ns : int;
  args : (string * string) list;
}

type dstate = {
  tid : int;
  mutable ctrs : int array;
  mutable hists : hist_cell array;
  phases : (string, int ref) Hashtbl.t;  (* name -> accumulated ns *)
  mutable events : event list;  (* reverse completion order *)
  mutable stack : frame list;  (* open spans, innermost first *)
}

let dstates : dstate list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let ds =
        { tid = (Domain.self () :> int);
          ctrs = [||];
          hists = [||];
          phases = Hashtbl.create 8;
          events = [];
          stack = [] }
      in
      Mutex.lock reg_mutex;
      dstates := ds :: !dstates;
      Mutex.unlock reg_mutex;
      ds)

let dls () = Domain.DLS.get key

let grow_ints a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let ctr_cell ds id =
  if Array.length ds.ctrs <= id then
    ds.ctrs <- grow_ints ds.ctrs (max 8 (2 * (id + 1)));
  ds.ctrs

let hist_cell ds id =
  if Array.length ds.hists <= id then begin
    let b = Array.init (max 8 (2 * (id + 1))) (fun _ -> fresh_hist_cell ()) in
    Array.blit ds.hists 0 b 0 (Array.length ds.hists);
    ds.hists <- b
  end;
  ds.hists.(id)

(* Gauges are last-write-wins process-wide; written rarely and from
   one domain at a time, so a plain global array suffices. *)
let gauge_values = ref (Array.make 0 0.0)

let add c n =
  if Atomic.get level_cell > 0 then begin
    let ds = dls () in
    let cells = ctr_cell ds c in
    cells.(c) <- cells.(c) + n
  end

let incr c = add c 1

let set_gauge g v =
  if Atomic.get level_cell > 0 then begin
    Mutex.lock reg_mutex;
    if Array.length !gauge_values <= g then begin
      let b = Array.make (max 8 (2 * (g + 1))) 0.0 in
      Array.blit !gauge_values 0 b 0 (Array.length !gauge_values);
      gauge_values := b
    end;
    !gauge_values.(g) <- v;
    Mutex.unlock reg_mutex
  end

let observe h v =
  if Atomic.get level_cell > 0 then record (hist_cell (dls ()) h) v

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Span ids are globally unique (one fetch-and-add), so parenting
   works across domains; 0 is reserved for "no span". *)
let next_span = Atomic.make 1

let current_span () =
  if Atomic.get level_cell > 1 then
    let ds = dls () in
    match ds.stack with [] -> null_span | f :: _ -> f.f_id
  else null_span

let with_span ?parent ?(args = []) name f =
  if Atomic.get level_cell > 1 then begin
    let ds = dls () in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match ds.stack with [] -> null_span | fr :: _ -> fr.f_id)
    in
    let fr =
      { f_name = name;
        f_id = Atomic.fetch_and_add next_span 1;
        f_parent = parent;
        f_start_ns = Clock.now_ns ();
        f_args = List.rev args }
    in
    ds.stack <- fr :: ds.stack;
    let finish () =
      let stop = Clock.now_ns () in
      (* Pop exactly our frame; an exception inside f cannot unbalance
         the stack because every push is paired with this finally. *)
      (match ds.stack with
      | top :: rest when top == fr -> ds.stack <- rest
      | _ -> assert false);
      ds.events <-
        { name = fr.f_name;
          id = fr.f_id;
          parent = fr.f_parent;
          tid = ds.tid;
          start_ns = fr.f_start_ns;
          dur_ns = stop - fr.f_start_ns;
          args = List.rev fr.f_args }
        :: ds.events
    in
    Fun.protect ~finally:finish f
  end
  else f ()

let annotate kvs =
  if Atomic.get level_cell > 1 then begin
    let ds = dls () in
    match ds.stack with
    | [] -> ()
    | fr :: _ -> fr.f_args <- List.rev_append kvs fr.f_args
  end

let phase_ns_cell ds name =
  match Hashtbl.find_opt ds.phases name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add ds.phases name r;
      r

let with_phase name f =
  if Atomic.get level_cell > 0 then begin
    let ds = dls () in
    let cell = phase_ns_cell ds name in
    let t0 = Clock.now_ns () in
    let account () = cell := !cell + (Clock.now_ns () - t0) in
    if Atomic.get level_cell > 1 then
      with_span ("phase:" ^ name) (fun () -> Fun.protect ~finally:account f)
    else Fun.protect ~finally:account f
  end
  else f ()

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type histogram_summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
}

let summary_of_cell m =
  let buckets = ref [] in
  for s = hist_slots - 1 downto 0 do
    if m.slots.(s) > 0 then buckets := (slot_bound s, m.slots.(s)) :: !buckets
  done;
  { count = m.h_count; sum = m.h_sum; min = m.h_min; max = m.h_max;
    buckets = !buckets }

let locked f =
  Mutex.lock reg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mutex) f

let by_name (a, _) (b, _) = compare (a : string) b

let counters () =
  locked (fun () ->
      let names = names_of counters_reg in
      let totals = Array.make counters_reg.count 0 in
      List.iter
        (fun ds ->
          Array.iteri
            (fun id v -> if id < Array.length totals then totals.(id) <- totals.(id) + v)
            ds.ctrs)
        !dstates;
      List.sort by_name
        (Array.to_list (Array.mapi (fun id name -> (name, totals.(id))) names)))

let gauges () =
  locked (fun () ->
      let names = names_of gauges_reg in
      List.sort by_name
        (Array.to_list
           (Array.mapi
              (fun id name ->
                let v =
                  if id < Array.length !gauge_values then !gauge_values.(id)
                  else 0.0
                in
                (name, v))
              names)))

let histograms () =
  locked (fun () ->
      let names = names_of histograms_reg in
      let merged =
        Array.init histograms_reg.count (fun _ -> fresh_hist_cell ())
      in
      List.iter
        (fun ds ->
          Array.iteri
            (fun id cell ->
              if id < Array.length merged && cell.h_count > 0 then begin
                let m = merged.(id) in
                m.h_count <- m.h_count + cell.h_count;
                m.h_sum <- m.h_sum + cell.h_sum;
                if cell.h_min < m.h_min then m.h_min <- cell.h_min;
                if cell.h_max > m.h_max then m.h_max <- cell.h_max;
                Array.iteri (fun s n -> m.slots.(s) <- m.slots.(s) + n) cell.slots
              end)
            ds.hists)
        !dstates;
      List.sort by_name
        (Array.to_list
           (Array.mapi
              (fun id name -> (name, summary_of_cell merged.(id)))
              names)))

let summarize vs =
  let cell = fresh_hist_cell () in
  List.iter (record cell) vs;
  summary_of_cell cell

(* Bucket-based percentile estimate.  The contract on an empty summary
   is pinned (0.0, no NaN, no exception) because /metrics-style
   exporters render every interned histogram, observed or not. *)
let summary_quantile s p =
  if s.count <= 0 then 0.0
  else begin
    let target = Float.ceil (p /. 100.0 *. float_of_int s.count) in
    (* NaN compares false everywhere, so [rank] lands on 1. *)
    let rank =
      if target >= float_of_int s.count then s.count
      else if target >= 1.0 then int_of_float target
      else 1
    in
    let rec go cum = function
      | [] -> float_of_int s.max
      | (le, n) :: rest ->
          let cum = cum + n in
          if cum >= rank then
            Float.max (float_of_int s.min)
              (Float.min (float_of_int le) (float_of_int s.max))
          else go cum rest
    in
    go 0 s.buckets
  end

let diff_counters ~before after =
  let prior = List.to_seq before |> Hashtbl.of_seq in
  List.filter_map
    (fun (name, v) ->
      let d = v - Option.value (Hashtbl.find_opt prior name) ~default:0 in
      if d <> 0 then Some (name, d) else None)
    after

let drain_events () =
  let evs =
    locked (fun () ->
        List.concat_map
          (fun ds ->
            let e = ds.events in
            ds.events <- [];
            List.rev e)
          !dstates)
  in
  List.sort (fun a b -> compare a.start_ns b.start_ns) evs

let drain_phases () =
  let tbl = Hashtbl.create 8 in
  locked (fun () ->
      List.iter
        (fun ds ->
          Hashtbl.iter
            (fun name ns ->
              let cur = Option.value (Hashtbl.find_opt tbl name) ~default:0 in
              Hashtbl.replace tbl name (cur + !ns))
            ds.phases;
          Hashtbl.reset ds.phases)
        !dstates);
  Hashtbl.fold (fun name ns acc -> (name, Clock.ns_to_s ns) :: acc) tbl []
  |> List.sort by_name

let reset () =
  locked (fun () ->
      List.iter
        (fun ds ->
          Array.fill ds.ctrs 0 (Array.length ds.ctrs) 0;
          Array.iter
            (fun c ->
              c.h_count <- 0;
              c.h_sum <- 0;
              c.h_min <- max_int;
              c.h_max <- min_int;
              Array.fill c.slots 0 hist_slots 0)
            ds.hists;
          Hashtbl.reset ds.phases;
          ds.events <- [])
        !dstates;
      Array.fill !gauge_values 0 (Array.length !gauge_values) 0.0)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let histogram_summary_to_json s =
  Json.Obj
    [ ("count", Json.Int s.count); ("sum", Json.Int s.sum);
      ("min", Json.Int (if s.count = 0 then 0 else s.min));
      ("max", Json.Int (if s.count = 0 then 0 else s.max));
      ("buckets",
       Json.List
         (List.map
            (fun (le, n) ->
              Json.Obj [ ("le", Json.Int le); ("n", Json.Int n) ])
            s.buckets)) ]

let metrics_to_json ?(phases = []) () =
  Json.Obj
    [ ("counters",
       Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (counters ())));
      ("gauges",
       Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) (gauges ())));
      ("histograms",
       Json.Obj
         (List.map (fun (n, s) -> (n, histogram_summary_to_json s)) (histograms ())));
      ("wall_s_by_phase",
       Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) phases)) ]

let print_summary oc =
  let ctrs = counters () and gs = gauges () and hs = histograms () in
  Printf.fprintf oc "\n===== telemetry: end-of-run metrics =====\n";
  if ctrs = [] && gs = [] && hs = [] then
    Printf.fprintf oc "(no instruments recorded)\n"
  else begin
    if ctrs <> [] then begin
      Printf.fprintf oc "counters:\n";
      let w =
        List.fold_left (fun a (n, _) -> Stdlib.max a (String.length n)) 0 ctrs
      in
      List.iter
        (fun (n, v) -> Printf.fprintf oc "  %-*s %d\n" w n v)
        ctrs
    end;
    if gs <> [] then begin
      Printf.fprintf oc "gauges:\n";
      List.iter (fun (n, v) -> Printf.fprintf oc "  %s = %g\n" n v) gs
    end;
    if hs <> [] then begin
      Printf.fprintf oc "histograms (count / sum / min / max / mean):\n";
      List.iter
        (fun (n, s) ->
          if s.count = 0 then Printf.fprintf oc "  %s: empty\n" n
          else
            Printf.fprintf oc "  %s: %d / %d / %d / %d / %.2f\n" n s.count
              s.sum s.min s.max
              (float_of_int s.sum /. float_of_int s.count))
        hs
    end
  end

(* ------------------------------------------------------------------ *)
(* Chrome trace-event writer                                           *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type writer = {
    sink : Json.Atomic.t;
    mutable first : bool;
    mutable tids : int list;  (* distinct, reverse first-seen order *)
    mutable live : bool;
  }

  let open_file ~path =
    Fsutil.mkdir_p (Filename.dirname path);
    let sink = Json.Atomic.create ~path in
    output_string (Json.Atomic.channel sink) "{\"traceEvents\":[\n";
    { sink; first = true; tids = []; live = true }

  let pid = 1

  let emit w json =
    let oc = Json.Atomic.channel w.sink in
    if w.first then w.first <- false else output_string oc ",\n";
    output_string oc (Json.to_string json)

  let event_to_json (e : event) =
    Json.Obj
      [ ("name", Json.String e.name); ("cat", Json.String "commx");
        ("ph", Json.String "X");
        ("ts", Json.Float (Clock.ns_to_us e.start_ns));
        ("dur", Json.Float (Clock.ns_to_us e.dur_ns));
        ("pid", Json.Int pid); ("tid", Json.Int e.tid);
        ("args",
         Json.Obj
           (( "span", Json.Int e.id )
            :: ( "parent", Json.Int e.parent )
            :: List.map (fun (k, v) -> (k, Json.String v)) e.args)) ]

  let flush w events =
    if w.live then begin
      List.iter
        (fun (e : event) ->
          if not (List.mem e.tid w.tids) then w.tids <- e.tid :: w.tids;
          emit w (event_to_json e))
        events;
      Stdlib.flush (Json.Atomic.channel w.sink)
    end

  let close w =
    if w.live then begin
      w.live <- false;
      (* Thread-name metadata makes Perfetto label the rows. *)
      List.iter
        (fun tid ->
          emit w
            (Json.Obj
               [ ("name", Json.String "thread_name"); ("ph", Json.String "M");
                 ("ts", Json.Float 0.0);
                 ("pid", Json.Int pid); ("tid", Json.Int tid);
                 ("args",
                  Json.Obj
                    [ ("name", Json.String (Printf.sprintf "domain-%d" tid)) ]) ]))
        (List.rev w.tids);
      output_string (Json.Atomic.channel w.sink) "\n]}\n";
      Json.Atomic.commit w.sink
    end

  let abort w =
    if w.live then begin
      w.live <- false;
      Json.Atomic.abort w.sink
    end

  let with_file path f =
    match path with
    | None -> f ~flush:(fun () -> ignore (drain_events ()))
    | Some path ->
        let w = open_file ~path in
        let flush () = flush w (drain_events ()) in
        (* Commit the trace whatever happened: a partial trace of a
           failed run is exactly what one wants to look at.  Close
           after a final drain so the last spans are included. *)
        Fun.protect
          ~finally:(fun () ->
            (try flush ()
             with e ->
               abort w;
               raise e);
            close w)
          (fun () -> f ~flush)
end
