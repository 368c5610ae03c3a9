(* Snapshot drift detection (bench diff / make bench-diff).

   Regenerates every committed BENCH_*.json into a scratch directory and
   structurally compares each against the snapshot in the repo root
   ([Drift.diff]: exact, except the declared tolerant keys). Every named
   shape check the committed snapshot records must hold as well
   ([Drift.failed_checks]).

   Exits non-zero on any drift, which is what wires it into make ci:
   either the code change is benign and the snapshots are regenerated
   and committed alongside it, or the drift is a regression and the
   build says so. *)

module J = Cedar_obs.Jsonb

let snapshots : (string * (string -> unit)) list =
  [
    ("BENCH_OBS.json", fun out -> Obs_json.run ~out ());
    ("BENCH_GROUPCOMMIT.json", fun out -> Bench_clients.run ~out ());
    ("BENCH_FAULTSWEEP.json", fun out -> Bench_faultsweep.run ~out ());
    ("BENCH_RECOVERY.json", fun out -> Bench_recovery.run ~out ());
    ("BENCH_WRAP.json", fun out -> Bench_wrap.run ~out ());
    ("BENCH_TIMELINE.json", fun out -> Bench_timeline.run ~out ());
    ("BENCH_BREAKDOWN.json", fun out -> Bench_breakdown.run ~out ());
    ("BENCH_VOLUMES.json", fun out -> Bench_volumes.run ~out ());
    ("BENCH_QDEPTH.json", fun out -> Bench_qdepth.run ~out ());
  ]

let scratch_dir = "_build/bench-diff"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse label path =
  match J.of_string (read_file path) with
  | Ok v -> v
  | Error m -> failwith (Printf.sprintf "%s: %s" label m)

let mkdir_p path =
  (* only two levels deep; good enough for the scratch dir *)
  let parent = Filename.dirname path in
  (try Sys.mkdir parent 0o755 with Sys_error _ -> ());
  try Sys.mkdir path 0o755 with Sys_error _ -> ()

let diff_one name regen =
  if not (Sys.file_exists name) then [ name ^ ": no committed snapshot" ]
  else begin
    let fresh = Filename.concat scratch_dir name in
    regen fresh;
    let want = parse name name and got = parse fresh fresh in
    Drift.failed_checks name want @ List.rev (Drift.diff ~path:name ~key:"" want got [])
  end

let run ?out () =
  Setup.hr "snapshot drift check (regenerate every BENCH_*.json and compare)";
  mkdir_p scratch_dir;
  let results = List.map (fun (name, regen) -> (name, diff_one name regen)) snapshots in
  Setup.hr "bench-diff verdict";
  let total =
    List.fold_left (fun n (name, drift) ->
        (match drift with
        | [] -> Printf.printf "  %-24s ok\n" name
        | ds ->
          Printf.printf "  %-24s %d field(s) drifted or checks failed\n" name
            (List.length ds);
          List.iteri (fun i d -> if i < 12 then Printf.printf "    %s\n" d) ds;
          if List.length ds > 12 then
            Printf.printf "    ... and %d more\n" (List.length ds - 12));
        n + List.length drift)
      0 results
  in
  (match out with
  | None -> ()
  | Some path ->
    let obj =
      J.Obj
        [
          ("bench", J.Str "diff");
          ("drifted_fields", J.Int total);
          ( "snapshots",
            J.Obj
              (List.map
                 (fun (name, ds) ->
                   (name, J.Arr (List.map (fun d -> J.Str d) ds)))
                 results) );
        ]
    in
    let oc = open_out path in
    output_string oc (J.to_string_pretty obj);
    output_char oc '\n';
    close_out oc);
  if total > 0 then begin
    Printf.printf
      "  DRIFT: %d field(s) or failed check(s); fix the regression, or \
       regenerate with 'make bench' and commit a deliberate change\n"
      total;
    exit 1
  end
  else print_endline "  all snapshots within tolerance"
