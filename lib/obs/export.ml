(* Chrome trace-event JSON (the about://tracing / Perfetto format).

   Spans become complete "X" events: the Op_begin entry is matched to its
   Op_end through the end entry's span field (which is the begin's seq),
   so only balanced pairs are emitted and the B/E-imbalance class of
   malformed traces cannot occur. Everything else becomes instant "i"
   events. Timestamps are the simulated clock, already in microseconds —
   exactly what the format wants. *)

let tid_ops = 1
let tid_device = 2
let tid_log = 3
let tid_meta = 4

(* Device 0 keeps the historical track; each further device of a
   multi-volume set gets its own track well clear of the session tids. *)
let tid_device_stride = 100

(* Server sessions each get their own track so the viewer shows the
   interleaving: spans opened with op "sessionNN" land on track
   [tid_session_base + NN], as do the phase slices of that client's
   op records. *)
let tid_session_base = 16

(* Monitor counter tracks ("C" phase) live on their own tid. *)
let tid_counters = 5

let session_tid op =
  let prefix = "session" in
  let pl = String.length prefix in
  if String.length op > pl && String.sub op 0 pl = prefix then
    match int_of_string_opt (String.sub op pl (String.length op - pl)) with
    | Some n when n >= 0 -> Some (tid_session_base + n)
    | Some _ | None -> None
  else None

let base ~name ~cat ~ph ~ts ~tid rest =
  ( ts,
    Jsonb.Obj
      ([
         ("name", Jsonb.Str name);
         ("cat", Jsonb.Str cat);
         ("ph", Jsonb.Str ph);
         ("ts", Jsonb.Int ts);
         ("pid", Jsonb.Int 1);
         ("tid", Jsonb.Int tid);
       ]
      @ rest) )

let complete ~name ~cat ~ts ~dur ~tid args =
  base ~name ~cat ~ph:"X" ~ts ~tid
    (("dur", Jsonb.Int dur) :: (match args with [] -> [] | a -> [ ("args", Jsonb.Obj a) ]))

let instant ~name ~cat ~ts ~tid args =
  base ~name ~cat ~ph:"i" ~ts ~tid
    (("s", Jsonb.Str "t") :: (match args with [] -> [] | a -> [ ("args", Jsonb.Obj a) ]))

let counter ~name ~ts value =
  base ~name ~cat:"monitor" ~ph:"C" ~ts ~tid:tid_counters
    [ ("args", Jsonb.Obj [ ("value", value) ]) ]

let chrome ?(samples = []) entries =
  let begins : (int, Trace.entry) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Op_begin _ -> Hashtbl.replace begins e.Trace.seq e
      | _ -> ())
    entries;
  let events = ref [] in
  let push ev = events := ev :: !events in
  let session_tids = ref [] in
  let note_session tid =
    if not (List.mem tid !session_tids) then session_tids := tid :: !session_tids
  in
  List.iter
    (fun (e : Trace.entry) ->
      let ts = e.Trace.at_us in
      match e.Trace.event with
      (* A begin is emitted as "X" at its matching end. *)
      | Trace.Op_begin _ | Trace.Op_submitted _ -> ()
      | Trace.Op_end { op; us } -> begin
        match Hashtbl.find_opt begins e.Trace.span with
        | Some b ->
          Hashtbl.remove begins e.Trace.span;
          let name =
            match b.Trace.event with Trace.Op_begin { name; _ } -> name | _ -> ""
          in
          let tid, cat =
            match session_tid op with
            | Some tid ->
              note_session tid;
              (tid, "session")
            | None -> (tid_ops, "op")
          in
          push
            (complete ~name:op ~cat ~ts:b.Trace.at_us ~dur:us ~tid
               [ ("name", Jsonb.Str name); ("span", Jsonb.Int e.Trace.span) ])
        | None ->
          (* The begin fell off the ring; an instant marks the orphan end. *)
          push (instant ~name:("end:" ^ op) ~cat:"op" ~ts ~tid:tid_ops [])
      end
      | Trace.Dev_read { dev; sector; count; us } ->
        push
          (complete ~name:"read" ~cat:"device" ~ts ~dur:us
             ~tid:(tid_device + (dev * tid_device_stride))
             [ ("sector", Jsonb.Int sector); ("count", Jsonb.Int count) ])
      | Trace.Dev_write { dev; sector; count; us } ->
        push
          (complete ~name:"write" ~cat:"device" ~ts ~dur:us
             ~tid:(tid_device + (dev * tid_device_stride))
             [ ("sector", Jsonb.Int sector); ("count", Jsonb.Int count) ])
      | Trace.Dev_seek { dev; cylinders; us } ->
        push
          (complete ~name:"seek" ~cat:"device" ~ts ~dur:us
             ~tid:(tid_device + (dev * tid_device_stride))
             [ ("cylinders", Jsonb.Int cylinders) ])
      | Trace.Log_append { record_no; units; data_sectors; total_sectors; third } ->
        push
          (instant ~name:"log-append" ~cat:"log" ~ts ~tid:tid_log
             [
               ("record", Jsonb.Int (Int64.to_int record_no));
               ("units", Jsonb.Int units);
               ("data_sectors", Jsonb.Int data_sectors);
               ("total_sectors", Jsonb.Int total_sectors);
               ("third", Jsonb.Int third);
             ])
      | Trace.Log_force { units; empty } ->
        push
          (instant ~name:"log-force" ~cat:"log" ~ts ~tid:tid_log
             [ ("units", Jsonb.Int units); ("empty", Jsonb.Bool empty) ])
      | Trace.Fnt_write_twice { page } ->
        push
          (instant ~name:"fnt-write-twice" ~cat:"fsd" ~ts ~tid:tid_meta
             [ ("page", Jsonb.Int page) ])
      | Trace.Leader_piggyback { sector } ->
        push
          (instant ~name:"leader-piggyback" ~cat:"fsd" ~ts ~tid:tid_meta
             [ ("sector", Jsonb.Int sector) ])
      | Trace.Vam_rebuild { source; us } ->
        push
          (complete ~name:("vam-" ^ source) ~cat:"recovery" ~ts ~dur:us ~tid:tid_meta
             [])
      | Trace.Scrub_repair { target; loc } ->
        push
          (instant ~name:("scrub-" ^ target) ~cat:"fsd" ~ts ~tid:tid_meta
             [ ("loc", Jsonb.Int loc) ])
      | Trace.Scavenge_phase { phase; us } ->
        push
          (complete ~name:("scavenge-" ^ phase) ~cat:"recovery" ~ts ~dur:us
             ~tid:tid_meta [])
      | Trace.Recovery_phase { phase; us } ->
        push
          (complete ~name:("recovery-" ^ phase) ~cat:"recovery" ~ts ~dur:us
             ~tid:tid_meta [])
      | Trace.Home_write_burst { third; pages; leaders } ->
        push
          (instant ~name:"home-write-burst" ~cat:"fsd" ~ts ~tid:tid_meta
             [
               ("third", Jsonb.Int third);
               ("pages", Jsonb.Int pages);
               ("leaders", Jsonb.Int leaders);
             ])
      | Trace.Mutation { seq } ->
        push
          (instant ~name:"mutation" ~cat:"fsd" ~ts ~tid:tid_meta
             [ ("seq", Jsonb.Int seq) ])
      | Trace.Op_done
          {
            Trace.client;
            opseq;
            op;
            arrived_us;
            queue_us;
            execute_us;
            append_us;
            parked_us;
            _;
          } ->
        (* The record tiles the session track: queue before the session
           span (execute), then the post-execute wait — parked, with the
           append share at its tail, where the covering force
           completes. *)
        let tid = tid_session_base + client in
        note_session tid;
        let args = [ ("opseq", Jsonb.Int opseq); ("op", Jsonb.Str op) ] in
        let slice name ts dur =
          if dur > 0 then push (complete ~name ~cat:"phase" ~ts ~dur ~tid args)
        in
        slice "queue" arrived_us queue_us;
        slice "parked" (arrived_us + queue_us + execute_us) parked_us;
        slice "append" (ts - append_us) append_us)
    entries;
  (* Spans still open when the capture ended (in-flight at a crash). *)
  Hashtbl.iter
    (fun _ (b : Trace.entry) ->
      match b.Trace.event with
      | Trace.Op_begin { op; name } ->
        push
          (instant ~name:("unfinished:" ^ op) ~cat:"op" ~ts:b.Trace.at_us
             ~tid:tid_ops
             [ ("name", Jsonb.Str name) ])
      | _ -> ())
    begins;
  (* Monitor samples become counter ("C") tracks: one per derived
     saturation gauge, one per watched dist's windowed p99. *)
  List.iter
    (fun (s : Monitor.sample) ->
      let ts = s.Monitor.at_us in
      List.iter
        (fun (name, v) -> push (counter ~name ~ts (Jsonb.Float v)))
        s.Monitor.derived;
      List.iter
        (fun (name, w) ->
          push (counter ~name:(name ^ ".p99") ~ts (Jsonb.Float w.Metrics.p99)))
        s.Monitor.dists)
    samples;
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events)
  in
  let thread_name tid name =
    Jsonb.Obj
      [
        ("name", Jsonb.Str "thread_name");
        ("ph", Jsonb.Str "M");
        ("pid", Jsonb.Int 1);
        ("tid", Jsonb.Int tid);
        ("args", Jsonb.Obj [ ("name", Jsonb.Str name) ]);
      ]
  in
  Jsonb.Obj
    [
      ("displayTimeUnit", Jsonb.Str "ms");
      ( "traceEvents",
        Jsonb.Arr
          ([
             thread_name tid_ops "operations";
             thread_name tid_device "device";
             thread_name tid_log "log";
             thread_name tid_meta "metadata";
           ]
          @ List.map
              (fun tid ->
                thread_name tid
                  (Printf.sprintf "session %d" (tid - tid_session_base)))
              (List.sort compare !session_tids)
          @ List.map snd sorted) );
    ]
