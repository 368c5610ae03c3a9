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
  amortised_ios : float;
  amortised_writes : float;
  amortised_sectors_written : float;
}

type acc = {
  mutable calls : int;
  mutable reads : int;
  mutable writes : int;
  mutable sread : int;
  mutable swritten : int;
  mutable dev_us : int;
  mutable op_us : int;
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
          calls = 0;
          reads = 0;
          writes = 0;
          sread = 0;
          swritten = 0;
          dev_us = 0;
          op_us = 0;
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
      | Trace.Op_end { op; us } ->
        let a = row op in
        a.calls <- a.calls + 1;
        a.op_us <- a.op_us + us
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
        calls = a.calls;
        reads = a.reads;
        writes = a.writes;
        sectors_read = a.sread;
        sectors_written = a.swritten;
        device_us = a.dev_us;
        op_us = a.op_us;
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
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Log_append a ->
        incr records;
        units := !units + a.units;
        data_sectors := !data_sectors + a.data_sectors;
        total_sectors := !total_sectors + a.total_sectors;
        Stats.add data_sectors_per_record (float_of_int a.data_sectors)
      | Trace.Log_force { units; empty } ->
        if empty then incr empty_forces
        else begin
          incr forces;
          Stats.add units_per_force (float_of_int units)
        end
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
           ])
       rows)

let dist_json s =
  if Stats.n s = 0 then Jsonb.Obj [ ("n", Jsonb.Int 0) ]
  else
    Jsonb.Obj
      [
        ("n", Jsonb.Int (Stats.n s));
        ("mean", Jsonb.Float (Stats.mean s));
        ("min", Jsonb.Float (Stats.min s));
        ("p95", Jsonb.Float (Stats.percentile s 0.95));
        ("max", Jsonb.Float (Stats.max s));
      ]

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
        ("units_per_force", dist_json r.units_per_force);
        ("data_sectors_per_record", dist_json r.data_sectors_per_record);
      ])

let recovery_json rows =
  Jsonb.Arr
    (List.map
       (fun r -> Jsonb.Obj [ ("phase", Jsonb.Str r.phase); ("us", Jsonb.Int r.us) ])
       rows)

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
    rows

let pp_log ppf r =
  Format.fprintf ppf
    "log: %d records (%d page images, %d data sectors, %d total sectors), %d \
     forces, %d empty forces@."
    r.records r.units r.data_sectors r.total_sectors r.forces r.empty_forces;
  if Stats.n r.units_per_force > 0 then
    Format.fprintf ppf "  units/force: %a@." Stats.pp r.units_per_force;
  if Stats.n r.data_sectors_per_record > 0 then
    Format.fprintf ppf "  data sectors/record: %a@." Stats.pp r.data_sectors_per_record

let pp_recovery ppf rows =
  List.iter (fun r -> Format.fprintf ppf "%-24s %10d us@." r.phase r.us) rows
