(* Benchmark harness entry point.

   dune exec bench/main.exe              -- reproduce every paper table
   dune exec bench/main.exe -- table2    -- one table (see [tables])
   dune exec bench/main.exe -- clients   -- regenerate one committed
                                            snapshot ([Snapshots.all]);
                                            --out PATH writes it elsewhere
   dune exec bench/main.exe -- snapshots -- regenerate every snapshot
   dune exec bench/main.exe -- diff      -- the snapshot drift gate

   A regenerated snapshot whose checks fail is still written, and the
   harness then exits 1. *)

let tables =
  [
    ("table1", Bench_tables.table1);
    ("table2", Bench_tables.table2);
    ("table3", Bench_tables.table3);
    ("table4", Bench_tables.table4);
    ("table5", Bench_tables.table5);
    ("recovery-model", Bench_tables.recovery);
    ("group-commit", fun () -> Bench_tables.group_commit ());
    ("log-records", Bench_tables.log_records);
    ("vam", Bench_tables.vam_rebuild);
    ("model", Bench_tables.model_validation);
    ("log-util", Bench_tables.log_utilization);
    ("vam-logging", Bench_tables.vam_logging);
    ("log-size", Bench_tables.log_size);
    ("fragmentation", Bench_tables.fragmentation);
    ("all", Bench_tables.all);
  ]

let usage () =
  prerr_endline
    ("usage: main.exe ["
    ^ String.concat "|"
        (List.map fst tables
        @ List.map (fun s -> s.Snapshots.target) Snapshots.all
        @ [ "snapshots"; "diff" ])
    ^ "] [--out PATH]");
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split_out acc = function
    | "--out" :: path :: rest -> (Some path, List.rev_append acc rest)
    | "--out" :: [] -> usage ()
    | a :: rest -> split_out (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let out, targets = split_out [] args in
  (match (out, targets) with
  | None, _ -> ()
  | Some _, [ t ] when Snapshots.find t <> None -> ()
  | Some _, _ ->
    prerr_endline "main.exe: --out PATH takes exactly one snapshot target";
    exit 2);
  print_endline
    "Reimplementing the Cedar File System Using Logging and Group Commit";
  print_endline "(Hagmann, SOSP 1987) -- reproduction harness";
  Printf.printf "simulated disk: %s\n"
    (Format.asprintf "%a" Cedar_disk.Geometry.pp Setup.geom);
  let checks_hold = ref true in
  let write ?out s = if not (Snapshots.write ?out s) then checks_hold := false in
  let run t =
    match (List.assoc_opt t tables, Snapshots.find t, t) with
    | Some table, _, _ -> table ()
    | None, Some s, _ -> write ?out s
    | None, None, "snapshots" -> List.iter (fun s -> write s) Snapshots.all
    | None, None, "diff" -> Snapshots.diff ()
    | None, None, _ -> usage ()
  in
  (match targets with [] -> Bench_tables.all () | ts -> List.iter run ts);
  if not !checks_hold then exit 1
