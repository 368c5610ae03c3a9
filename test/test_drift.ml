(* The snapshot drift gate (bench diff): which fields may drift is one
   declared list of keys, and this suite pins every field of the
   committed snapshots it covers — widening the list, or adding a field
   under a tolerant key, shows up here as a reviewed change. Each
   snapshot's contract is its one "checks" object, held by one rule. *)

module J = Cedar_obs.Jsonb

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* The committed snapshots, in the project root. *)
let snapshots () =
  Sys.readdir ".."
  |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare

let parse file =
  match J.of_string (In_channel.with_open_bin (Filename.concat ".." file) In_channel.input_all) with
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" file m

let tolerant_fields () =
  let acc = ref [] in
  let rec walk file key = function
    | J.Obj kvs -> List.iter (fun (k, v) -> walk file k v) kvs
    | J.Arr vs -> List.iter (walk file key) vs
    | J.Int _ | J.Float _ ->
      if Drift.tolerant key then acc := (file ^ ": " ^ key) :: !acc
    | _ -> ()
  in
  List.iter (fun f -> walk f "" (parse f)) (snapshots ());
  List.sort_uniq compare !acc

let test_tolerant_fields_pinned () =
  check
    Alcotest.(list string)
    "tolerant fields in the committed snapshots"
    [
      "BENCH_BREAKDOWN.json: duration_us";
      "BENCH_BREAKDOWN.json: mean";
      "BENCH_BREAKDOWN.json: p50";
      "BENCH_BREAKDOWN.json: p90";
      "BENCH_BREAKDOWN.json: p99";
      "BENCH_GROUPCOMMIT.json: batch_mean";
      "BENCH_GROUPCOMMIT.json: commit_wait_max_us";
      "BENCH_GROUPCOMMIT.json: commit_wait_mean_us";
      "BENCH_GROUPCOMMIT.json: commit_wait_p50_us";
      "BENCH_GROUPCOMMIT.json: commit_wait_p99_us";
      "BENCH_GROUPCOMMIT.json: duration_us";
      "BENCH_GROUPCOMMIT.json: ops_per_force";
      "BENCH_GROUPCOMMIT.json: throughput_ops_s";
      "BENCH_OBS.json: at_us";
      "BENCH_OBS.json: busy_us";
      "BENCH_OBS.json: device.busy_us";
      "BENCH_OBS.json: device_us";
      "BENCH_OBS.json: mean";
      "BENCH_OBS.json: op_us";
      "BENCH_OBS.json: p50";
      "BENCH_OBS.json: p90";
      "BENCH_OBS.json: p95";
      "BENCH_OBS.json: p99";
      "BENCH_OBS.json: rotation_us";
      "BENCH_OBS.json: seek_us";
      "BENCH_OBS.json: total_us";
      "BENCH_OBS.json: transfer_us";
      "BENCH_QDEPTH.json: busy_us";
      "BENCH_QDEPTH.json: duration_us";
      "BENCH_QDEPTH.json: op_lat_max_us";
      "BENCH_QDEPTH.json: op_lat_p50_us";
      "BENCH_QDEPTH.json: op_lat_p99_us";
      "BENCH_QDEPTH.json: rotation_us";
      "BENCH_QDEPTH.json: seek_us";
      "BENCH_QDEPTH.json: transfer_us";
      "BENCH_RECOVERY.json: log_replay_us";
      "BENCH_RECOVERY.json: restart_total_us";
      "BENCH_TIMELINE.json: achieved_ops_s";
      "BENCH_TIMELINE.json: at_us";
      "BENCH_TIMELINE.json: busy";
      "BENCH_TIMELINE.json: busy_max";
      "BENCH_TIMELINE.json: busy_mean";
      "BENCH_TIMELINE.json: duration_us";
      "BENCH_TIMELINE.json: fill";
      "BENCH_TIMELINE.json: fill_max";
      "BENCH_TIMELINE.json: ops_per_force";
      "BENCH_TIMELINE.json: phase_queue";
      "BENCH_TIMELINE.json: wait_p50_us";
      "BENCH_TIMELINE.json: wait_p99_us";
      "BENCH_VOLUMES.json: agg_ops_per_force";
      "BENCH_VOLUMES.json: batch_mean";
      "BENCH_VOLUMES.json: commit_wait_p50_us";
      "BENCH_VOLUMES.json: commit_wait_p99_us";
      "BENCH_VOLUMES.json: duration_us";
      "BENCH_VOLUMES.json: ops_per_force_pooled";
      "BENCH_VOLUMES.json: throughput_ops_s";
    ]
    (tolerant_fields ())

(* Counts and workload inputs must match exactly, even when their names
   look like times; measured times get 10%. *)
let test_counts_and_inputs_exact () =
  let drifted key want got =
    List.length
      (Drift.diff ~path:"s" ~key:"" (J.Obj [ (key, want) ]) (J.Obj [ (key, got) ]) [])
  in
  List.iter
    (fun key -> check int (key ^ " is exact") 1 (drifted key (J.Int 100) (J.Int 101)))
    [ "replayed_pages"; "think_us"; "commit_interval_us"; "monitor_interval_us" ];
  check int "offered rate is exact" 1
    (drifted "offered_ops_s" (J.Float 4.0) (J.Float 4.1));
  check int "a time within 10% passes" 0
    (drifted "duration_us" (J.Int 1000) (J.Int 1050));
  check int "a time beyond 10% drifts" 1
    (drifted "duration_us" (J.Int 1000) (J.Int 1200))

(* bench diff also fails on a committed snapshot whose named check does
   not hold: every committed one holds, and one check of
   BENCH_TIMELINE.json set false is reported, once. *)
let test_committed_checks_hold () =
  List.iter
    (fun f ->
      check
        Alcotest.(list string)
        (f ^ ": every named check holds")
        [] (Drift.failed_checks f (parse f)))
    (snapshots ());
  let set_false = function
    | J.Obj kvs ->
      J.Obj
        (List.map
           (function
             | "checks", J.Obj cs ->
               ( "checks",
                 J.Obj
                   (List.map
                      (fun (n, v) -> if n = "deterministic" then (n, J.Bool false) else (n, v))
                      cs) )
             | kv -> kv)
           kvs)
    | v -> v
  in
  check
    Alcotest.(list string)
    "the false check is reported"
    [ "BENCH_TIMELINE.json.checks.deterministic: false, want true" ]
    (Drift.failed_checks "BENCH_TIMELINE.json" (set_false (parse "BENCH_TIMELINE.json")))

(* The one check rule asks every snapshot for a contract: no "checks"
   object, an empty one, or one that is not an object is reported, once. *)
let test_missing_checks_reported () =
  let none = [ "BENCH_X.json.checks: no check recorded" ] in
  List.iter
    (fun (what, v) ->
      check Alcotest.(list string) what none (Drift.failed_checks "BENCH_X.json" v))
    [
      ("no checks object", J.Obj [ ("bench", J.Str "x") ]);
      ("an empty checks object", J.Obj [ ("checks", J.Obj []) ]);
      ("a checks value that is not an object", J.Obj [ ("checks", J.Bool true) ]);
    ]

(* The names in a committed snapshot's checks object. *)
let check_names file =
  match parse file with
  | J.Obj kvs -> (
    match List.assoc_opt "checks" kvs with
    | Some (J.Obj cs) -> List.map fst cs
    | Some _ | None -> [])
  | _ -> []

(* Every committed snapshot records a non-empty contract, and both crash
   sweeps' contracts demand zero violations, so a recovery bug committed
   with a regenerated snapshot cannot pass the gate unseen. *)
let test_committed_contracts () =
  List.iter
    (fun f -> check bool (f ^ ": checks is non-empty") true (check_names f <> []))
    (snapshots ());
  List.iter
    (fun f ->
      check bool (f ^ ": checks carries no_violations") true
        (List.mem "no_violations" (check_names f)))
    [ "BENCH_WRAP.json"; "BENCH_FAULTSWEEP.json" ]

let suite =
  [
    ("tolerant fields are pinned", `Quick, test_tolerant_fields_pinned);
    ("counts and inputs are exact", `Quick, test_counts_and_inputs_exact);
    ("committed shape checks hold", `Quick, test_committed_checks_hold);
    ("a missing contract is reported", `Quick, test_missing_checks_reported);
    ("committed contracts are complete", `Quick, test_committed_contracts);
  ]
