module Stats = Cedar_util.Stats

type op_row = {
  op : string;
  calls : int;
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
  device_us : int;
  op_us : int;
  latency_us : Stats.t;
  amortised_ios : float;
  amortised_writes : float;
  amortised_sectors_written : float;
}

type acc = {
  latency : Stats.t;  (* one sample per closed span *)
  mutable reads : int;
  mutable writes : int;
  mutable sread : int;
  mutable swritten : int;
  mutable dev_us : int;
  (* Amortisation adjustments (can be negative): log-append device
     writes moved from the span that executed the force to the ops of
     the batch, in proportion to mutation counts. *)
  mutable adj_writes : float;
  mutable adj_swritten : float;
}

let no_span = "(none)"

let per_op entries =
  (* Span ids are the seq of their Op_begin entry; build the id -> op
     label map first, then attribute each device event to its innermost
     enclosing span. *)
  let label_of_span = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Op_begin { op; _ } -> Hashtbl.replace label_of_span e.Trace.seq op
      | _ -> ())
    entries;
  let rows : (string, acc) Hashtbl.t = Hashtbl.create 16 in
  let row op =
    match Hashtbl.find_opt rows op with
    | Some a -> a
    | None ->
      let a =
        {
          latency = Stats.create ();
          reads = 0;
          writes = 0;
          sread = 0;
          swritten = 0;
          dev_us = 0;
          adj_writes = 0.0;
          adj_swritten = 0.0;
        }
      in
      Hashtbl.replace rows op a;
      a
  in
  let label span =
    match Hashtbl.find_opt label_of_span span with Some op -> op | None -> no_span
  in
  (* Group-commit amortisation: log appends execute under whichever span
     ran the force (the force demon, an explicit [force]...), so the ops
     whose mutations the record carries show zero log I/O. Track
     [Mutation] events per label since the last non-empty force; when the
     force lands, move its append writes from the spans that issued them
     to the mutating labels, pro-rata by mutation count. Totals are
     conserved by construction. *)
  let batch_muts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let pending_appends = ref [] (* (label, total_sectors), newest first *) in
  let redistribute () =
    let total_muts = Hashtbl.fold (fun _ k acc -> acc + k) batch_muts 0 in
    if total_muts > 0 && !pending_appends <> [] then begin
      let n_appends = List.length !pending_appends in
      let tot_sectors =
        List.fold_left (fun acc (_, s) -> acc + s) 0 !pending_appends
      in
      List.iter
        (fun (lbl, sectors) ->
          let a = row lbl in
          a.adj_writes <- a.adj_writes -. 1.0;
          a.adj_swritten <- a.adj_swritten -. float_of_int sectors)
        !pending_appends;
      Hashtbl.fold (fun lbl k acc -> (lbl, k) :: acc) batch_muts []
      |> List.sort compare
      |> List.iter (fun (lbl, k) ->
             let share = float_of_int k /. float_of_int total_muts in
             let a = row lbl in
             a.adj_writes <- a.adj_writes +. (float_of_int n_appends *. share);
             a.adj_swritten <-
               a.adj_swritten +. (float_of_int tot_sectors *. share))
    end;
    Hashtbl.reset batch_muts;
    pending_appends := []
  in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Dev_read { count; us; _ } ->
        let a = row (label e.Trace.span) in
        a.reads <- a.reads + 1;
        a.sread <- a.sread + count;
        a.dev_us <- a.dev_us + us
      | Trace.Dev_write { count; us; _ } ->
        let a = row (label e.Trace.span) in
        a.writes <- a.writes + 1;
        a.swritten <- a.swritten + count;
        a.dev_us <- a.dev_us + us
      | Trace.Dev_seek { us; _ } ->
        let a = row (label e.Trace.span) in
        a.dev_us <- a.dev_us + us
      | Trace.Op_end { op; us } -> Stats.add (row op).latency (float_of_int us)
      | Trace.Mutation _ ->
        let lbl = label e.Trace.span in
        Hashtbl.replace batch_muts lbl
          (1 + Option.value ~default:0 (Hashtbl.find_opt batch_muts lbl))
      | Trace.Log_append { total_sectors; _ } ->
        pending_appends := (label e.Trace.span, total_sectors) :: !pending_appends
      | Trace.Log_force { empty = false; _ } -> redistribute ()
      | _ -> ())
    entries;
  Hashtbl.fold
    (fun op (a : acc) rows ->
      {
        op;
        calls = Stats.n a.latency;
        reads = a.reads;
        writes = a.writes;
        sectors_read = a.sread;
        sectors_written = a.swritten;
        device_us = a.dev_us;
        op_us = int_of_float (Stats.total a.latency);
        latency_us = a.latency;
        amortised_ios = float_of_int (a.reads + a.writes) +. a.adj_writes;
        amortised_writes = float_of_int a.writes +. a.adj_writes;
        amortised_sectors_written = float_of_int a.swritten +. a.adj_swritten;
      }
      :: rows)
    rows []
  |> List.sort (fun a b -> String.compare a.op b.op)

type log_row = {
  records : int;
  units : int;
  data_sectors : int;
  total_sectors : int;
  forces : int;
  empty_forces : int;
  units_per_force : Stats.t;
  data_sectors_per_record : Stats.t;
  ops_per_force : Stats.t;
  force_interval_us : Stats.t;
  third_timeline : (int * int * int) list;
}

let log_activity entries =
  let records = ref 0
  and units = ref 0
  and data_sectors = ref 0
  and total_sectors = ref 0
  and forces = ref 0
  and empty_forces = ref 0 in
  let units_per_force = Stats.create () in
  let data_sectors_per_record = Stats.create () in
  let ops_per_force = Stats.create () in
  let force_interval_us = Stats.create () in
  let ops_since = ref 0 in
  let last_force_at = ref None in
  let timeline = ref [] in
  let cur_third = ref (-1) in
  let occupied = ref 0 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Op_end { op; _ } ->
        (* The force span itself is bookkeeping, not an operation the
           force amortises. *)
        if op <> "force" then incr ops_since
      | Trace.Log_append a ->
        incr records;
        units := !units + a.units;
        data_sectors := !data_sectors + a.data_sectors;
        total_sectors := !total_sectors + a.total_sectors;
        Stats.add data_sectors_per_record (float_of_int a.data_sectors);
        if a.third <> !cur_third then begin
          cur_third := a.third;
          occupied := 0
        end;
        occupied := !occupied + a.total_sectors;
        timeline := (e.Trace.at_us, a.third, !occupied) :: !timeline
      | Trace.Log_force { units; empty } ->
        if empty then incr empty_forces
        else begin
          incr forces;
          Stats.add units_per_force (float_of_int units)
        end;
        Stats.add ops_per_force (float_of_int !ops_since);
        ops_since := 0;
        (match !last_force_at with
        | Some t0 -> Stats.add force_interval_us (float_of_int (e.Trace.at_us - t0))
        | None -> ());
        last_force_at := Some e.Trace.at_us
      | _ -> ())
    entries;
  {
    records = !records;
    units = !units;
    data_sectors = !data_sectors;
    total_sectors = !total_sectors;
    forces = !forces;
    empty_forces = !empty_forces;
    units_per_force;
    data_sectors_per_record;
    ops_per_force;
    force_interval_us;
    third_timeline = List.rev !timeline;
  }

type phase_row = { phase : string; us : int }

let recovery_phases entries =
  List.filter_map
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Recovery_phase { phase; us } -> Some { phase; us }
      | Trace.Vam_rebuild { source; us } -> Some { phase = "vam-" ^ source; us }
      | Trace.Scavenge_phase { phase; us } -> Some { phase = "scavenge-" ^ phase; us }
      | _ -> None)
    entries

let series_json s = Metrics.summary_json (Metrics.summarize s)

let per_op_json rows =
  Jsonb.Arr
    (List.map
       (fun r ->
         Jsonb.Obj
           [
             ("op", Jsonb.Str r.op);
             ("calls", Jsonb.Int r.calls);
             ("reads", Jsonb.Int r.reads);
             ("writes", Jsonb.Int r.writes);
             ("ios", Jsonb.Int (r.reads + r.writes));
             ("sectors_read", Jsonb.Int r.sectors_read);
             ("sectors_written", Jsonb.Int r.sectors_written);
             ("amortised_ios", Jsonb.Float r.amortised_ios);
             ("amortised_writes", Jsonb.Float r.amortised_writes);
             ( "amortised_sectors_written",
               Jsonb.Float r.amortised_sectors_written );
             ("device_us", Jsonb.Int r.device_us);
             ("op_us", Jsonb.Int r.op_us);
             ("latency_us", series_json r.latency_us);
           ])
       rows)

let log_json ?sector_bytes r =
  let bytes_fields =
    match sector_bytes with
    | None -> []
    | Some sb ->
      [
        ("data_bytes", Jsonb.Int (r.data_sectors * sb));
        ("total_bytes", Jsonb.Int (r.total_sectors * sb));
      ]
  in
  Jsonb.Obj
    ([
       ("records", Jsonb.Int r.records);
       ("units", Jsonb.Int r.units);
       ("data_sectors", Jsonb.Int r.data_sectors);
       ("total_sectors", Jsonb.Int r.total_sectors);
       ("forces", Jsonb.Int r.forces);
       ("empty_forces", Jsonb.Int r.empty_forces);
     ]
    @ bytes_fields
    @ [
        ("units_per_force", series_json r.units_per_force);
        ("data_sectors_per_record", series_json r.data_sectors_per_record);
        ("ops_per_force", series_json r.ops_per_force);
        ("force_interval_us", series_json r.force_interval_us);
        ( "third_timeline",
          Jsonb.Arr
            (List.map
               (fun (at_us, third, occupied) ->
                 Jsonb.Obj
                   [
                     ("at_us", Jsonb.Int at_us);
                     ("third", Jsonb.Int third);
                     ("occupied_sectors", Jsonb.Int occupied);
                   ])
               r.third_timeline) );
      ])

let recovery_json rows =
  Jsonb.Arr
    (List.map
       (fun r -> Jsonb.Obj [ ("phase", Jsonb.Str r.phase); ("us", Jsonb.Int r.us) ])
       rows)

let pp_series ppf s = Metrics.pp_summary ppf (Metrics.summarize s)

let pp_per_op ppf rows =
  Format.fprintf ppf "%-14s %6s %6s %6s %6s %8s %8s %8s %9s %10s %10s@." "op"
    "calls" "reads" "writes" "ios" "sec-rd" "sec-wr" "am-ios" "am-sec-wr"
    "dev-us" "op-us";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s %6d %6d %6d %6d %8d %8d %8.1f %9.1f %10d %10d@."
        r.op r.calls r.reads r.writes (r.reads + r.writes) r.sectors_read
        r.sectors_written r.amortised_ios r.amortised_sectors_written
        r.device_us r.op_us)
    rows;
  Format.fprintf ppf "@.per-op latency (simulated us):@.";
  List.iter
    (fun r -> Format.fprintf ppf "  %-12s %a@." r.op pp_series r.latency_us)
    rows

let pp_log ppf r =
  Format.fprintf ppf
    "log: %d records (%d page images, %d data sectors, %d total sectors), %d \
     forces, %d empty forces@."
    r.records r.units r.data_sectors r.total_sectors r.forces r.empty_forces;
  Format.fprintf ppf "  units/force:         %a@." pp_series r.units_per_force;
  Format.fprintf ppf "  data sectors/record: %a@." pp_series r.data_sectors_per_record;
  Format.fprintf ppf "  ops/force:           %a@." pp_series r.ops_per_force;
  Format.fprintf ppf "  force interval us:   %a@." pp_series r.force_interval_us;
  match List.rev r.third_timeline with
  | [] -> Format.fprintf ppf "  log thirds: no appends traced@."
  | (at, third, occ) :: _ ->
    Format.fprintf ppf
      "  log thirds: %d appends traced; last: third %d at %d sectors (t=%.3fms)@."
      (List.length r.third_timeline) third occ
      (float_of_int at /. 1000.)
