(* The committed snapshots: one registry, one writer, one check rule.

   Each BENCH_*.json at the repo root is listed once here: the harness
   target that regenerates it, its file, and the generator that prints
   its human table and returns its JSON. A snapshot's contract is that
   JSON's top-level "checks" object of named booleans, and
   [Drift.failed_checks] is the one rule enforcing it: [write] saves
   the file, then names each failed check; [diff] (bench diff, make
   bench-diff) regenerates every snapshot into a scratch directory,
   compares it with the committed copy ([Drift.diff]: exact, except the
   declared tolerant keys) and reports the failed checks of both.

   bench diff exits non-zero on any drift or failed check, which is
   what wires it into make ci: either the code change is benign and the
   snapshots are regenerated and committed alongside it, or the drift
   is a regression and the build says so. *)

module J = Cedar_obs.Jsonb

type t = { target : string; file : string; build : unit -> J.t }

let all =
  [
    { target = "obs-json"; file = "BENCH_OBS.json"; build = Obs_json.build };
    { target = "clients"; file = "BENCH_GROUPCOMMIT.json"; build = Bench_clients.build };
    { target = "faultsweep"; file = "BENCH_FAULTSWEEP.json"; build = Bench_faultsweep.build };
    { target = "recovery"; file = "BENCH_RECOVERY.json"; build = Bench_recovery.build };
    { target = "wrap"; file = "BENCH_WRAP.json"; build = Bench_wrap.build };
    { target = "timeline"; file = "BENCH_TIMELINE.json"; build = Bench_timeline.build };
    { target = "breakdown"; file = "BENCH_BREAKDOWN.json"; build = Bench_breakdown.build };
    { target = "volumes"; file = "BENCH_VOLUMES.json"; build = Bench_volumes.build };
    { target = "qdepth"; file = "BENCH_QDEPTH.json"; build = Bench_qdepth.build };
  ]

let find target = List.find_opt (fun s -> s.target = target) all

(* Build [s] and save it to [path]. *)
let save s path =
  let json = s.build () in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string_pretty json);
      output_char oc '\n');
  Printf.printf "  wrote %s\n" path;
  json

(* Regenerate [s] into [out] (default: its committed file). A snapshot
   whose checks fail is still written; false, after naming each. *)
let write ?out s =
  let path = Option.value out ~default:s.file in
  match Drift.failed_checks path (save s path) with
  | [] -> true
  | failed ->
    List.iter (Printf.printf "  CHECK FAILED: %s\n") failed;
    false

let scratch_dir = "_build/bench-diff"

let read_json path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok v -> v
  | Error m -> failwith (Printf.sprintf "%s: %s" path m)

(* The failed checks of the committed and the fresh copy of [s], then
   the fresh copy's drift from the committed one. *)
let drift s =
  if not (Sys.file_exists s.file) then [ s.file ^ ": no committed snapshot" ]
  else begin
    let fresh = Filename.concat scratch_dir s.file in
    ignore (save s fresh : J.t);
    let want = read_json s.file and got = read_json fresh in
    Drift.failed_checks s.file want
    @ Drift.failed_checks fresh got
    @ List.rev (Drift.diff ~path:s.file ~key:"" want got [])
  end

let diff () =
  Setup.hr "snapshot drift check (regenerate every BENCH_*.json and compare)";
  (* only two levels deep; good enough for the scratch dir *)
  List.iter
    (fun d -> try Sys.mkdir d 0o755 with Sys_error _ -> ())
    [ Filename.dirname scratch_dir; scratch_dir ];
  let results = List.map (fun s -> (s.file, drift s)) all in
  Setup.hr "bench-diff verdict";
  let total =
    List.fold_left
      (fun n (file, ds) ->
        (match ds with
        | [] -> Printf.printf "  %-24s ok\n" file
        | ds ->
          Printf.printf "  %-24s %d field(s) drifted or checks failed\n" file
            (List.length ds);
          List.iteri (fun i d -> if i < 12 then Printf.printf "    %s\n" d) ds;
          if List.length ds > 12 then
            Printf.printf "    ... and %d more\n" (List.length ds - 12));
        n + List.length ds)
      0 results
  in
  if total > 0 then begin
    Printf.printf
      "  DRIFT: %d field(s) or failed check(s); fix the regression, or \
       regenerate with 'make bench' and commit a deliberate change\n"
      total;
    exit 1
  end
  else print_endline "  all snapshots within tolerance"
