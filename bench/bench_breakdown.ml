(* The knee-sweep latency breakdown (bench breakdown).

   Re-drives the saturation-knee ladder of bench timeline
   ([Bench_timeline.rates], [rung_volume], [rung_scripts]) but with
   lifecycle tracing on, and collects each rung's per-op phase records
   through Critpath.
   The artifact this bench exists to pin down is the *blame shift*
   across the knee, Hagmann's §5.4 trade seen per-op:

   - below the knee, a mutation's end-to-end latency is dominated by
     the parked-for-force wait (plus its share of the force's log
     append) — the price of amortising the force over a batch;
   - above the knee, arrivals outrun service, and the same op's latency
     is dominated by queue time before it even executes — the price of
     saturation.

   Every op of every rung must satisfy the conservation invariant
   (queue + execute + append + parked = end - arrived, exactly); the
   snapshot's checks record that alongside the per-rung blame and tail
   shares. *)

module S = Cedar_server.Server
module Crit = Cedar_obs.Critpath
module Trace = Cedar_obs.Trace
module J = Cedar_obs.Jsonb
module Metrics = Cedar_obs.Metrics
module V = Cedar_volumes.Volume_set

(* Unlike bench timeline (which shortens the commit interval to make the
   time demon visible per-sample), this bench keeps the stock 500 ms
   interval: the parked-for-force wait must be long enough to own the
   tail below the knee for the blame shift to be observable. *)
let params = Cedar_fsd.Params.for_geometry Bench_timeline.geom

type rung = {
  rate : float;
  report : S.report;
  anatomy : Crit.t;
  json : string;  (** canonical why-style bytes, for the determinism check *)
}

let run_rung rate =
  let vset = Bench_timeline.rung_volume params in
  let tr = V.trace vset in
  Trace.enable ~capacity:(1 lsl 20) tr;
  let report = S.serve_volumes vset (Bench_timeline.rung_scripts rate) in
  Trace.disable tr;
  if Trace.dropped tr > 0 then begin
    Printf.eprintf
      "bench breakdown: trace ring overflowed at %.1f ops/s: %d entries \
       dropped, so the anatomy would miss ops\n"
      rate (Trace.dropped tr);
    exit 1
  end;
  let anatomy = Crit.fold (Trace.to_list tr) in
  { rate; report; anatomy; json = J.to_string (Crit.to_json anatomy) }

let agg r op = List.find_opt (fun a -> a.Crit.a_op = op) r.anatomy.Crit.aggs

let blame_of r op =
  match agg r op with
  | Some a when a.Crit.a_n > 0 -> Crit.phase_name a.Crit.a_blame
  | Some _ | None -> "-"

let tail_share r op ph =
  match agg r op with
  | Some a -> (
    match List.assoc_opt ph a.Crit.a_tail_share with Some f -> f | None -> 0.0)
  | None -> 0.0

(* The park-side share of a create's tail (parked + its append overlap)
   vs the pre-execute share (queue): the two sides of the blame shift,
   recorded as fractions so the snapshot shows the slide, not just the
   argmax flip. *)
let park_side r = tail_share r "create" Crit.Parked +. tail_share r "create" Crit.Append
let entry_side r = tail_share r "create" Crit.Queue

let rung_json r =
  let a = r.anatomy in
  J.Obj
    [
      ("offered_ops_s", J.Float r.rate);
      ("duration_us", J.Int r.report.S.duration_us);
      ("ops", J.Int (List.length a.Crit.ops));
      ("orphans", J.Int a.Crit.orphans);
      ("unfinished", J.Int a.Crit.unfinished);
      ("all_conserved", J.Bool a.Crit.all_conserved);
      ( "kinds",
        J.Obj
          (List.map
             (fun g ->
               ( g.Crit.a_op,
                 J.Obj
                   [
                     ("n", J.Int g.Crit.a_n);
                     ( "e2e_us",
                       Metrics.summary_json
                         ~fields:[ "p50"; "p90"; "p99"; "mean" ]
                         g.Crit.a_e2e );
                     ( "phase_mean_us",
                       J.Obj
                         (List.map
                            (fun (ph, p) ->
                              (Crit.phase_name ph, J.Float p.Metrics.mean))
                            g.Crit.a_phase) );
                     ("blame", J.Str (Crit.phase_name g.Crit.a_blame));
                     ("tail_n", J.Int g.Crit.a_tail_n);
                     ( "tail_share",
                       J.Obj
                         (List.map
                            (fun (ph, f) -> (Crit.phase_name ph, J.Float f))
                            g.Crit.a_tail_share) );
                   ] ))
             a.Crit.aggs) );
      ("create_blame", J.Str (blame_of r "create"));
      ("create_tail_park_side", J.Float (park_side r));
      ("create_tail_entry_side", J.Float (entry_side r));
    ]

(* The blame-shift contract, as named checks the snapshot records. *)
let checks rungs twice =
  let first = List.hd rungs and last = List.hd (List.rev rungs) in
  [
    ( "all_ops_conserved",
      List.for_all (fun r -> r.anatomy.Crit.all_conserved) rungs );
    ( "no_orphans",
      List.for_all
        (fun r -> r.anatomy.Crit.orphans = 0 && r.anatomy.Crit.unfinished = 0)
        rungs );
    ( "park_blame_below_knee",
      match blame_of first "create" with "parked" | "append" -> true | _ -> false
    );
    ("entry_blame_past_knee", blame_of last "create" = "queue");
    ( "blame_share_shifts",
      park_side first > entry_side first && entry_side last > park_side last );
    ("deterministic", first.json = twice.json);
  ]

let build () =
  Setup.hr "knee-sweep latency breakdown (cedar why, conserved phase blame)";
  let rungs = List.map run_rung Bench_timeline.rates in
  let twice = run_rung (List.hd Bench_timeline.rates) in
  Printf.printf "  %8s %6s %9s %-10s %10s %10s\n" "offered" "ops" "conserved"
    "blame" "park-side" "entry-side";
  List.iter
    (fun r ->
      Printf.printf "  %8.1f %6d %9s %-10s %9.0f%% %9.0f%%\n" r.rate
        (List.length r.anatomy.Crit.ops)
        (if r.anatomy.Crit.all_conserved then "yes" else "NO")
        (blame_of r "create")
        (100.0 *. park_side r)
        (100.0 *. entry_side r))
    rungs;
  J.Obj
    ((("bench", J.Str "breakdown") :: Bench_timeline.ladder_json)
    @ [
        ("commit_interval_us", J.Int params.Cedar_fsd.Params.commit_interval_us);
        Setup.checks (checks rungs twice);
        ("rungs", J.Arr (List.map rung_json rungs));
      ])
