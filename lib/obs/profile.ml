module Stats = Cedar_util.Stats

type t = {
  op_latency : (string * Stats.t) list;
  ops_per_force : Stats.t;
  force_interval_us : Stats.t;
  third_timeline : (int * int * int) list;
  fnt_dirty_age_us : Stats.t option;
  forces : int;
  empty_forces : int;
}

let of_entries ?fnt_dirty_age_us entries =
  let latency : (string, Stats.t) Hashtbl.t = Hashtbl.create 16 in
  let lat op =
    match Hashtbl.find_opt latency op with
    | Some s -> s
    | None ->
      let s = Stats.create () in
      Hashtbl.replace latency op s;
      s
  in
  let ops_per_force = Stats.create () in
  let force_interval_us = Stats.create () in
  let ops_since = ref 0 in
  let last_force_at = ref None in
  let forces = ref 0 in
  let empty_forces = ref 0 in
  let timeline = ref [] in
  let cur_third = ref (-1) in
  let occupied = ref 0 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Op_end { op; us } ->
        Stats.add (lat op) (float_of_int us);
        (* The force span itself is bookkeeping, not an operation the
           force amortises. *)
        if op <> "force" then incr ops_since
      | Trace.Log_force { empty; _ } ->
        if empty then incr empty_forces else incr forces;
        Stats.add ops_per_force (float_of_int !ops_since);
        ops_since := 0;
        (match !last_force_at with
        | Some t0 -> Stats.add force_interval_us (float_of_int (e.Trace.at_us - t0))
        | None -> ());
        last_force_at := Some e.Trace.at_us
      | Trace.Log_append { third; total_sectors; _ } ->
        if third <> !cur_third then begin
          cur_third := third;
          occupied := 0
        end;
        occupied := !occupied + total_sectors;
        timeline := (e.Trace.at_us, third, !occupied) :: !timeline
      | _ -> ())
    entries;
  let op_latency =
    Hashtbl.fold (fun op s acc -> (op, s) :: acc) latency []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    op_latency;
    ops_per_force;
    force_interval_us;
    third_timeline = List.rev !timeline;
    fnt_dirty_age_us;
    forces = !forces;
    empty_forces = !empty_forces;
  }

let dist_json s =
  if Stats.n s = 0 then Jsonb.Obj [ ("n", Jsonb.Int 0) ]
  else
    Jsonb.Obj
      [
        ("n", Jsonb.Int (Stats.n s));
        ("mean", Jsonb.Float (Stats.mean s));
        ("min", Jsonb.Float (Stats.min s));
        ("p50", Jsonb.Float (Stats.percentile s 0.5));
        ("p90", Jsonb.Float (Stats.percentile s 0.9));
        ("p99", Jsonb.Float (Stats.percentile s 0.99));
        ("max", Jsonb.Float (Stats.max s));
      ]

let to_json t =
  Jsonb.Obj
    [
      ( "op_latency_us",
        Jsonb.Obj (List.map (fun (op, s) -> (op, dist_json s)) t.op_latency) );
      ("ops_per_force", dist_json t.ops_per_force);
      ("force_interval_us", dist_json t.force_interval_us);
      ("forces", Jsonb.Int t.forces);
      ("empty_forces", Jsonb.Int t.empty_forces);
      ( "fnt_dirty_age_us",
        match t.fnt_dirty_age_us with None -> Jsonb.Null | Some s -> dist_json s );
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
             t.third_timeline) );
    ]

let pp_dist ppf s =
  if Stats.n s = 0 then Format.fprintf ppf "(empty)"
  else
    Format.fprintf ppf "n=%d mean=%.1f min=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f"
      (Stats.n s) (Stats.mean s) (Stats.min s) (Stats.percentile s 0.5)
      (Stats.percentile s 0.9) (Stats.percentile s 0.99) (Stats.max s)

let pp ppf t =
  Format.fprintf ppf "per-op latency (simulated us):@.";
  List.iter
    (fun (op, s) -> Format.fprintf ppf "  %-12s %a@." op pp_dist s)
    t.op_latency;
  Format.fprintf ppf "group commit: %d forces, %d empty forces@." t.forces
    t.empty_forces;
  Format.fprintf ppf "  ops/force:         %a@." pp_dist t.ops_per_force;
  Format.fprintf ppf "  force interval us: %a@." pp_dist t.force_interval_us;
  (match t.fnt_dirty_age_us with
  | None -> ()
  | Some s -> Format.fprintf ppf "  fnt dirty-page age us: %a@." pp_dist s);
  match t.third_timeline with
  | [] -> Format.fprintf ppf "log thirds: no appends traced@."
  | tl ->
    let at, third, occ = List.nth tl (List.length tl - 1) in
    Format.fprintf ppf
      "log thirds: %d appends traced; last: third %d at %d sectors (t=%.3fms)@."
      (List.length tl) third occ
      (float_of_int at /. 1000.)
