(* Collect the server's per-op records from a trace and aggregate them.

   The server splits each op's latency once, when it acknowledges or
   drops the op, and writes the split into an [Op_done] record; this
   module only gathers those records. The five phases tile
   [arrived, end] by construction, so the [conserved] check can demand
   equality, not tolerance. *)

module Stats = Cedar_util.Stats

type phase = Queue | Admission | Execute | Append | Parked

let phases = [ Queue; Admission; Execute; Append; Parked ]

let phase_name = function
  | Queue -> "queue"
  | Admission -> "admission"
  | Execute -> "execute"
  | Append -> "append"
  | Parked -> "parked"

type op_record = Trace.op_record = {
  client : int;
  opseq : int;
  op : string;
  arrived_us : int;
  end_us : int;
  queue_us : int;
  admission_us : int;
  execute_us : int;
  seek_us : int;
  transfer_us : int;
  append_us : int;
  parked_us : int;
  retries : int;
  dropped : bool;
}

let total_us r = r.end_us - r.arrived_us

let phase_us r = function
  | Queue -> r.queue_us
  | Admission -> r.admission_us
  | Execute -> r.execute_us
  | Append -> r.append_us
  | Parked -> r.parked_us

let conserved r =
  r.queue_us + r.admission_us + r.execute_us + r.append_us + r.parked_us
  = total_us r

type pct = { p50 : float; p90 : float; p99 : float; mean : float; max : float }

type agg = {
  a_op : string;
  a_n : int;
  a_dropped : int;
  a_retries : int;
  a_e2e : pct;
  a_phase : (phase * pct) list;
  a_blame : phase;
  a_tail_n : int;
  a_tail_share : (phase * float) list;
}

type t = {
  ops : op_record list;
  aggs : agg list;
  orphans : int;
  unfinished : int;
  all_conserved : bool;
}

(* ------------------------------------------------------------------ *)
(* The fold. *)

let fold entries =
  (* Lifecycles submitted and not yet done, by client: a client's next
     [Op_submitted] replaces one lost to a crash or abort. *)
  let open_ops : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let ops_rev = ref [] in
  let orphans = ref 0 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Op_submitted { client; opseq } -> Hashtbl.replace open_ops client opseq
      | Trace.Op_done r ->
        if Hashtbl.find_opt open_ops r.client = Some r.opseq then
          Hashtbl.remove open_ops r.client
        else incr orphans;
        ops_rev := r :: !ops_rev
      | _ -> ())
    entries;
  let ops = List.rev !ops_rev in
  let unfinished = Hashtbl.length open_ops in
  let all_conserved = List.for_all conserved ops in
  (* Per-kind aggregation over completed (non-dropped) lifecycles. *)
  let kinds = ref [] in
  List.iter
    (fun r -> if not (List.mem r.op !kinds) then kinds := r.op :: !kinds)
    ops;
  let pct_of dist =
    if Stats.n dist = 0 then { p50 = 0.; p90 = 0.; p99 = 0.; mean = 0.; max = 0. }
    else
      {
        p50 = Stats.percentile dist 0.50;
        p90 = Stats.percentile dist 0.90;
        p99 = Stats.percentile dist 0.99;
        mean = Stats.mean dist;
        max = Stats.max dist;
      }
  in
  let agg_of op =
    let mine = List.filter (fun r -> r.op = op) ops in
    let completed = List.filter (fun r -> not r.dropped) mine in
    let e2e = Stats.create () in
    List.iter (fun r -> Stats.add e2e (float_of_int (total_us r))) completed;
    let a_e2e = pct_of e2e in
    let a_phase =
      List.map
        (fun ph ->
          let d = Stats.create () in
          List.iter
            (fun r -> Stats.add d (float_of_int (phase_us r ph)))
            completed;
          (ph, pct_of d))
        phases
    in
    (* Tail blame: among the ops at or above the e2e p99, the phase with
       the largest mean. Ties break toward the earlier phase in pipeline
       order, deterministically. *)
    let tail =
      List.filter
        (fun r -> float_of_int (total_us r) >= a_e2e.p99)
        completed
    in
    let tail_n = List.length tail in
    let tail_sum ph =
      List.fold_left (fun acc r -> acc + phase_us r ph) 0 tail
    in
    let sums = List.map (fun ph -> (ph, tail_sum ph)) phases in
    let grand = List.fold_left (fun acc (_, s) -> acc + s) 0 sums in
    let a_blame =
      fst
        (List.fold_left
           (fun (bp, bs) (ph, s) -> if s > bs then (ph, s) else (bp, bs))
           (Queue, min_int) sums)
    in
    let a_tail_share =
      List.map
        (fun (ph, s) ->
          (ph, if grand = 0 then 0. else float_of_int s /. float_of_int grand))
        sums
    in
    {
      a_op = op;
      a_n = List.length completed;
      a_dropped = List.length mine - List.length completed;
      a_retries = List.fold_left (fun acc r -> acc + r.retries) 0 mine;
      a_e2e;
      a_phase;
      a_blame;
      a_tail_n = tail_n;
      a_tail_share;
    }
  in
  let aggs = List.map agg_of (List.sort compare !kinds) in
  { ops; aggs; orphans = !orphans; unfinished; all_conserved }

let blame t ~op =
  match List.find_opt (fun a -> a.a_op = op) t.aggs with
  | Some a when a.a_n > 0 -> Some a.a_blame
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let slowest ?op ?(top = 5) t =
  let eligible =
    List.filter
      (fun r -> (not r.dropped) && match op with Some o -> r.op = o | None -> true)
      t.ops
  in
  let sorted =
    List.stable_sort
      (fun a b ->
        match compare (total_us b) (total_us a) with
        | 0 -> compare (a.end_us, a.client, a.opseq) (b.end_us, b.client, b.opseq)
        | c -> c)
      eligible
  in
  List.filteri (fun i _ -> i < top) sorted

let pct_json p =
  Jsonb.Obj
    [
      ("p50", Jsonb.Float p.p50);
      ("p90", Jsonb.Float p.p90);
      ("p99", Jsonb.Float p.p99);
      ("mean", Jsonb.Float p.mean);
      ("max", Jsonb.Float p.max);
    ]

let op_json r =
  Jsonb.Obj
    [
      ("client", Jsonb.Int r.client);
      ("opseq", Jsonb.Int r.opseq);
      ("op", Jsonb.Str r.op);
      ("arrived_us", Jsonb.Int r.arrived_us);
      ("total_us", Jsonb.Int (total_us r));
      ("queue_us", Jsonb.Int r.queue_us);
      ("admission_us", Jsonb.Int r.admission_us);
      ("execute_us", Jsonb.Int r.execute_us);
      ("seek_us", Jsonb.Int r.seek_us);
      ("transfer_us", Jsonb.Int r.transfer_us);
      ("append_us", Jsonb.Int r.append_us);
      ("parked_us", Jsonb.Int r.parked_us);
      ("retries", Jsonb.Int r.retries);
    ]

let to_json ?op ?(top = 5) t =
  let aggs =
    match op with
    | Some o -> List.filter (fun a -> a.a_op = o) t.aggs
    | None -> t.aggs
  in
  Jsonb.Obj
    [
      ("ops", Jsonb.Int (List.length t.ops));
      ("orphans", Jsonb.Int t.orphans);
      ("unfinished", Jsonb.Int t.unfinished);
      ("all_conserved", Jsonb.Bool t.all_conserved);
      ( "kinds",
        Jsonb.Arr
          (List.map
             (fun a ->
               Jsonb.Obj
                 [
                   ("op", Jsonb.Str a.a_op);
                   ("n", Jsonb.Int a.a_n);
                   ("dropped", Jsonb.Int a.a_dropped);
                   ("retries", Jsonb.Int a.a_retries);
                   ("e2e_us", pct_json a.a_e2e);
                   ( "phases_us",
                     Jsonb.Obj
                       (List.map
                          (fun (ph, p) -> (phase_name ph, pct_json p))
                          a.a_phase) );
                   ("blame", Jsonb.Str (phase_name a.a_blame));
                   ("tail_n", Jsonb.Int a.a_tail_n);
                   ( "tail_share",
                     Jsonb.Obj
                       (List.map
                          (fun (ph, f) -> (phase_name ph, Jsonb.Float f))
                          a.a_tail_share) );
                 ])
             aggs) );
      ("top", Jsonb.Arr (List.map op_json (slowest ?op ~top t)));
    ]

let pp ?op ?(top = 5) ppf t =
  let ms us = float_of_int us /. 1000. in
  Format.fprintf ppf
    "latency anatomy: %d ops, %d orphans, %d unfinished, conservation %s@,"
    (List.length t.ops) t.orphans t.unfinished
    (if t.all_conserved then "OK" else "VIOLATED");
  let aggs =
    match op with
    | Some o -> List.filter (fun a -> a.a_op = o) t.aggs
    | None -> t.aggs
  in
  Format.fprintf ppf "@,%-10s %6s %5s %10s %10s %10s  %-9s %s@," "op" "n" "drop"
    "p50ms" "p90ms" "p99ms" "blame" "tail share (q/a/x/l/p %)";
  List.iter
    (fun a ->
      let share ph =
        match List.assoc_opt ph a.a_tail_share with
        | Some f -> int_of_float ((f *. 100.) +. 0.5)
        | None -> 0
      in
      Format.fprintf ppf "%-10s %6d %5d %10.2f %10.2f %10.2f  %-9s %d/%d/%d/%d/%d@,"
        a.a_op a.a_n a.a_dropped (a.a_e2e.p50 /. 1000.) (a.a_e2e.p90 /. 1000.)
        (a.a_e2e.p99 /. 1000.)
        (phase_name a.a_blame)
        (share Queue) (share Admission) (share Execute) (share Append)
        (share Parked))
    aggs;
  let tops = slowest ?op ~top t in
  if tops <> [] then begin
    Format.fprintf ppf "@,top %d slowest:@," (List.length tops);
    List.iter
      (fun r ->
        Format.fprintf ppf
          "  c%02d#%-4d %-9s %9.2fms = queue %.2f | admission %.2f (x%d) | \
           execute %.2f (seek %.2f xfer %.2f) | append %.2f | parked %.2f@,"
          r.client r.opseq r.op
          (ms (total_us r))
          (ms r.queue_us) (ms r.admission_us) r.retries (ms r.execute_us)
          (ms r.seek_us) (ms r.transfer_us) (ms r.append_us) (ms r.parked_us))
      tops
  end
