(* Crash-injection sweep over the server path (cedar faultsweep): every
   sector write of every group-commit force interval of the 2-client
   reference workload, once per tear mode, plus a scavenge-mode pass
   with both name-table copies destroyed after each crash. The columns
   that matter are the recovery-path histogram (log replay should carry
   almost everything, twin repair the damaged-sector points, the
   scavenger only the forced pass) and the violation count, whose check
   requires it to be zero.

   Deterministic and seeded like every other bench: the snapshot is
   byte-stable. *)

module F = Cedar_server.Faultsweep
module J = Cedar_obs.Jsonb

type row = { label : string; cfg : F.cfg; s : F.summary }

let rows () =
  let tear_rows =
    List.map
      (fun tear ->
        let cfg =
          {
            F.clients = 2;
            tears = [ tear ];
            max_forces = None;
            scavenge = false;
            workload = F.Reference;
          }
        in
        { label = F.tear_name tear; cfg; s = F.sweep cfg })
      F.all_tears
  in
  let scav_cfg =
    {
      F.clients = 2;
      tears = [ Cedar_disk.Device.Tear_none ];
      max_forces = None;
      scavenge = true;
      workload = F.Reference;
    }
  in
  tear_rows @ [ { label = "scavenge"; cfg = scav_cfg; s = F.sweep scav_cfg } ]

(* A crash sweep's counts, as every sweep row (here and in bench wrap)
   renders them after its own keys. *)
let counts_json s =
  [
    ("points", J.Int s.F.sw_points);
    ("runs", J.Int s.F.sw_runs);
    ("recovered_by_replay", J.Int s.F.sw_replay);
    ("recovered_by_twin_repair", J.Int s.F.sw_twin_repair);
    ("recovered_by_scavenge", J.Int s.F.sw_scavenged);
    ("violations", J.Int (List.length s.F.sw_violations));
  ]

let row_json row =
  let s = row.s in
  J.Obj
    ([
       ("mode", J.Str row.label);
       ("clients", J.Int s.F.sw_clients);
       ("scavenge", J.Bool s.F.sw_scavenge);
       ( "writes_per_interval",
         J.Arr
           (Array.to_list (Array.map (fun n -> J.Int n) s.F.sw_writes_per_interval))
       );
     ]
    @ counts_json s)

let build () =
  Setup.hr
    "crash-injection sweep: every sector write of every force interval \
     (cedar faultsweep)";
  let rows = rows () in
  Printf.printf "  %-9s %7s %6s %7s %12s %9s %10s\n" "mode" "points" "runs"
    "replay" "twin-repair" "scavenge" "violations";
  List.iter
    (fun row ->
      let s = row.s in
      Printf.printf "  %-9s %7d %6d %7d %12d %9d %10d\n" row.label s.F.sw_points
        s.F.sw_runs s.F.sw_replay s.F.sw_twin_repair s.F.sw_scavenged
        (List.length s.F.sw_violations))
    rows;
  let total_violations =
    List.fold_left (fun n r -> n + List.length r.s.F.sw_violations) 0 rows
  in
  J.Obj
    [
      ("bench", J.Str "faultsweep");
      ("workload", J.Str "crash_reference, 2 clients");
      ("violations_total", J.Int total_violations);
      Setup.checks [ ("no_violations", total_violations = 0) ];
      ("rows", J.Arr (List.map row_json rows));
    ]
