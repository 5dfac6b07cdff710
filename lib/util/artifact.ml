(* Schema-v3 BENCH_*.json artifacts, shared by bench/main and the ccmx
   CLI so the two entry points cannot drift (field order, status
   vocabulary, resume semantics). *)

let schema_version = 3

let path ~dir ~id = Filename.concat dir (Printf.sprintf "BENCH_%s.json" id)

let metrics ~counters ~phases =
  let bits_total =
    match List.assoc_opt "channel.bits_total" counters with
    | Some b -> b
    | None -> 0
  in
  Json.Obj
    [
      ("bits_total", Json.Int bits_total);
      ( "wall_s_by_phase",
        Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) phases) );
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters));
    ]

let metrics_since ~before =
  if Telemetry.metrics_on () then
    Some
      (metrics
         ~counters:(Telemetry.diff_counters ~before (Telemetry.counters ()))
         ~phases:(Telemetry.drain_phases ()))
  else None

let write ~dir ~id ~jobs ~wall_s ~attempts ~status ~error ?(metrics = Json.Null)
    ~report_fields () =
  Fsutil.mkdir_p dir;
  let doc =
    Json.Obj
      ([
         ("schema_version", Json.Int schema_version);
         ("experiment", Json.String id);
         ("status", Json.String status);
         ("error", error);
         ("attempts", Json.Int attempts);
         ("jobs", Json.Int jobs);
         ("wall_s", Json.Float wall_s);
         ("metrics", metrics);
       ]
      @ report_fields)
  in
  Json.to_file ~path:(path ~dir ~id) doc

(* --resume DIR: an experiment is done iff its artifact exists, parses,
   and carries status "ok".  Truncated files cannot occur (atomic
   writes) but artifacts from killed runs may be absent or non-ok; both
   re-execute.  Schema version is deliberately NOT checked: a v2 "ok"
   artifact still certifies a completed experiment. *)
let resume_done ~dir ~id =
  let p = path ~dir ~id in
  Sys.file_exists p
  && (match Json.of_file p with
     | doc -> Json.member "status" doc = Some (Json.String "ok")
     | exception _ -> false)
