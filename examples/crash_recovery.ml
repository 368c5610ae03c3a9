(* Crash recovery, the paper's headline robustness story.

   A workload runs; the machine dies mid-flight — including right in the
   middle of a group-commit log write (a torn multi-sector write). FSD
   replays its redo log in a couple of simulated seconds and loses only
   the uncommitted half-second. The same crash on CFS corrupts the name
   table and costs a full scavenge.

     dune exec examples/crash_recovery.exe *)

open Cedar_util
open Cedar_disk
open Cedar_fsd

let payload i n = Cedar_workload.Concurrent.content ~fill:i n

let () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.trident_t300 in
  Fsd.format device Params.default;
  let fs, _ = Fsd.boot device in

  (* A burst of work, committed. *)
  for i = 0 to 199 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "work/f%03d" i) (payload i 2_000))
  done;
  Fsd.force fs;
  Printf.printf "committed 200 files; free sectors: %d\n" (Fsd.free_sectors fs);

  (* More work that will never commit... *)
  for i = 0 to 9 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "doomed/f%02d" i) (payload i 2_000))
  done;

  (* ...because the machine dies DURING the group-commit write itself:
     the log record is torn after 6 sectors and two more are damaged. *)
  Device.plan_write_crash device ~after_sectors:6 ~damage_tail:2;
  (match Fsd.force fs with
  | () -> assert false
  | exception Device.Crash_during_write { sector } ->
    Printf.printf "CRASH during the log force at sector %d\n" sector);

  (* Reboot: recovery replays the committed records and rebuilds the
     volatile allocation map from the name table. *)
  let fs, report = Fsd.boot device in
  Printf.printf
    "FSD recovered in %.1f s (log replay %.2f s, %d records, %d sectors read from replicas; VAM rebuilt in %.1f s)\n"
    (Simclock.s_of_us report.Fsd.total_us)
    (Simclock.s_of_us report.Fsd.log_replay_us)
    report.Fsd.replayed_records report.Fsd.corrected_sectors
    (Simclock.s_of_us report.Fsd.vam_us);

  let committed = List.length (Fsd.list fs ~prefix:"work/") in
  let doomed = List.length (Fsd.list fs ~prefix:"doomed/") in
  Printf.printf "work/ files after recovery: %d (expected 200)\n" committed;
  Printf.printf "doomed/ files after recovery: %d (uncommitted, expected 0)\n" doomed;
  (match Fsd.check fs with
  | Ok () -> print_endline "structural check: ok"
  | Error m -> Printf.printf "structural check FAILED: %s\n" m);
  (* every committed file is readable, byte for byte *)
  let ok = ref true in
  for i = 0 to 199 do
    let name = Printf.sprintf "work/f%03d" i in
    if not (Bytes.equal (payload i 2_000) (Fsd.read_all fs ~name)) then ok := false
  done;
  Printf.printf "all committed contents intact: %b\n" !ok;

  (* The same story on CFS: a crash means the scavenger. *)
  print_endline "\n--- the old system, for contrast ---";
  let clock2 = Simclock.create () in
  let device2 = Device.create ~clock:clock2 Geometry.trident_t300 in
  Cedar_cfs.Cfs.format device2 Cedar_cfs.Cfs_layout.default_params;
  let cfs =
    match Cedar_cfs.Cfs.boot device2 with `Ok fs -> fs | `Needs_scavenge -> assert false
  in
  for i = 0 to 199 do
    ignore
      (Cedar_cfs.Cfs.create cfs ~name:(Printf.sprintf "work/f%03d" i) (payload i 2_000))
  done;
  (* crash without shutdown *)
  (match Cedar_cfs.Cfs.boot device2 with
  | `Needs_scavenge -> print_endline "CFS crash: the name table cannot be trusted"
  | `Ok _ -> assert false);
  let _cfs, report = Cedar_cfs.Cfs.scavenge device2 in
  Printf.printf "CFS scavenge took %.1f s for %d files (every label on the disk read)\n"
    (Simclock.s_of_us report.Cedar_cfs.Cfs.duration_us)
    report.Cedar_cfs.Cfs.files_recovered
