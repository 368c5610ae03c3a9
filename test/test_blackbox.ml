(* Black-box flight recorder, trace profiler and Chrome export: the
   checkpoint/decode path, torn-write fallback, crash forensics, and the
   hand-checked profile/percentile numbers (ISSUE 3). *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_fsd
module Obs = Cedar_obs
module Trace = Cedar_obs.Trace
module Script = Cedar_workload.Obs_script

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

let fresh_volume ?(geom = Geometry.small_test) () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Fsd.format device (Params.for_geometry geom);
  device

(* ------------------------------------------------------------------ *)
(* Event codec                                                          *)

let sample_events =
  [
    Trace.Dev_read { dev = 0; sector = 17; count = 4; us = 12_000 };
    Trace.Dev_write { dev = 3; sector = 293_617; count = 21; us = 50_658 };
    Trace.Dev_seek { dev = 255; cylinders = 406; us = 40_082 };
    Trace.Log_append
      {
        record_no = 1_000_001L;
        units = 2;
        data_sectors = 8;
        total_sectors = 21;
        third = 1;
      };
    Trace.Log_force { units = 2; empty = false };
    Trace.Fnt_write_twice { page = 5 };
    Trace.Leader_piggyback { sector = 4_242 };
    Trace.Vam_rebuild { source = "log"; us = 77 };
    Trace.Scrub_repair { target = "leader"; loc = 9 };
    Trace.Scavenge_phase { phase = "sweep"; us = 123 };
    Trace.Recovery_phase { phase = "analysis"; us = 456 };
    Trace.Op_begin { op = "create"; name = "a/b" };
    Trace.Op_end { op = "create"; us = 17_364 };
    Trace.Blackbox_checkpoint { gen = 3L; events = 64; sectors = 16 };
    Trace.Home_write_burst { third = 2; pages = 37; leaders = 5 };
    Trace.Reclaim_stall { third = 1; pinned = 3 };
    Trace.Mutation { seq = 4_096 };
    Trace.Op_submitted { client = 7; opseq = 1_234 };
    Trace.Op_rejected { client = 7; opseq = 1_234 };
    Trace.Op_done
      {
        client = 7;
        opseq = 1_234;
        op = "create";
        arrived_us = 5_000_000_000 (* above 2^32 *);
        end_us = 5_001_234_567;
        queue_us = 11;
        admission_us = 22;
        execute_us = 33_000;
        seek_us = 4_000;
        transfer_us = 5_000;
        append_us = 66_000;
        parked_us = 1_135_534;
        retries = 3;
        dropped = true;
      };
  ]

(* Each event constructor's ordinal. The match is exhaustive, so a new
   event does not compile here until it is named, and the roundtrip
   test fails until it is sampled. *)
let ordinal = function
  | Trace.Dev_read _ -> 0
  | Trace.Dev_write _ -> 1
  | Trace.Dev_seek _ -> 2
  | Trace.Log_append _ -> 3
  | Trace.Log_force _ -> 4
  | Trace.Fnt_write_twice _ -> 5
  | Trace.Leader_piggyback _ -> 6
  | Trace.Vam_rebuild _ -> 7
  | Trace.Scrub_repair _ -> 8
  | Trace.Scavenge_phase _ -> 9
  | Trace.Recovery_phase _ -> 10
  | Trace.Op_begin _ -> 11
  | Trace.Op_end _ -> 12
  | Trace.Blackbox_checkpoint _ -> 13
  | Trace.Home_write_burst _ -> 14
  | Trace.Reclaim_stall _ -> 15
  | Trace.Mutation _ -> 16
  | Trace.Op_submitted _ -> 17
  | Trace.Op_rejected _ -> 18
  | Trace.Op_done _ -> 19

let entry_eq (a : Trace.entry) (b : Trace.entry) =
  a.Trace.seq = b.Trace.seq
  && a.Trace.span = b.Trace.span
  && a.Trace.at_us = b.Trace.at_us
  && a.Trace.event = b.Trace.event

let test_codec_roundtrip () =
  List.iteri
    (fun i ev ->
      let e =
        { Trace.seq = 100 + i; span = i; at_us = 1_000 * i; event = ev }
      in
      let w = Bytebuf.Writer.create () in
      Trace.encode_entry w e;
      let r = Bytebuf.Reader.of_bytes (Bytebuf.Writer.contents w) in
      let e' = Trace.decode_entry r in
      check bool
        (Format.asprintf "entry %d roundtrips (%a)" i Trace.pp_event ev)
        true (entry_eq e e'))
    sample_events;
  check (Alcotest.list int) "every event constructor is sampled"
    (List.init 20 Fun.id)
    (List.sort_uniq compare (List.map ordinal sample_events))

(* ------------------------------------------------------------------ *)
(* Checkpoint write/read and shutdown                                    *)

let test_shutdown_checkpoint () =
  let device = fresh_volume () in
  Obs.Trace.enable (Device.trace device);
  let fs = fst (Fsd.boot device) in
  let ops = Fsd.ops fs in
  for i = 0 to 19 do
    ignore
      (ops.Fs_ops.create
         ~name:(Printf.sprintf "bb/f%02d" i)
         ~data:(Bytes.make 700 'x')
        : Fs_ops.info)
  done;
  ops.Fs_ops.force ();
  Fsd.shutdown fs;
  match Blackbox.read device (Fsd.layout fs) with
  | Error m -> Alcotest.failf "blackbox read failed: %s" m
  | Ok cp ->
    check string "last checkpoint is the shutdown one" "shutdown"
      cp.Blackbox.state.Blackbox.reason;
    check int "boot 1" 1 cp.Blackbox.state.Blackbox.boot_count;
    check bool "at least 64 events survived" true
      (List.length cp.Blackbox.events >= 64);
    check bool "no op in flight at clean shutdown" true
      (cp.Blackbox.in_flight = []);
    (* Events come back oldest first with increasing sequence numbers. *)
    let seqs = List.map (fun e -> e.Trace.seq) cp.Blackbox.events in
    check bool "events sorted oldest-first" true (List.sort compare seqs = seqs)

(* A crash mid-workload: with a zero-length commit interval every
   operation forces (and therefore checkpoints) while its own span is
   still open, so the black box names the operation that was in flight
   when the machine died. *)
let test_crash_names_in_flight_op () =
  let geom = Geometry.small_test in
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let params = { (Params.for_geometry geom) with Params.commit_interval_us = 1 } in
  Fsd.format device params;
  Obs.Trace.enable (Device.trace device);
  let fs = fst (Fsd.boot ~params device) in
  let ops = Fsd.ops fs in
  for i = 0 to 24 do
    ignore
      (ops.Fs_ops.create
         ~name:(Printf.sprintf "bb/f%02d" i)
         ~data:(Bytes.make 700 'x')
        : Fs_ops.info)
  done;
  (* No shutdown: the device simply stops here, as in a crash. *)
  match Blackbox.read device (Fsd.layout fs) with
  | Error m -> Alcotest.failf "blackbox read failed: %s" m
  | Ok cp ->
    check string "died during a force" "force" cp.Blackbox.state.Blackbox.reason;
    check bool "at least 64 events reconstructed" true
      (List.length cp.Blackbox.events >= 64);
    let names = List.map (fun (op, name, _) -> (op, name)) cp.Blackbox.in_flight in
    check bool "the interrupted create is named" true
      (List.mem ("create", "bb/f24") names)

(* ------------------------------------------------------------------ *)
(* Torn checkpoint                                                      *)

let test_torn_checkpoint_falls_back () =
  let device = fresh_volume () in
  Obs.Trace.enable (Device.trace device);
  let fs = fst (Fsd.boot device) in
  let ops = Fsd.ops fs in
  let layout = Fsd.layout fs in
  let create i =
    ignore
      (ops.Fs_ops.create
         ~name:(Printf.sprintf "torn/f%02d" i)
         ~data:(Bytes.make 700 'x')
        : Fs_ops.info)
  in
  (* Two full force cycles: gen 1 into slot 0, gen 2 into slot 1. *)
  create 0;
  ops.Fs_ops.force ();
  create 1;
  ops.Fs_ops.force ();
  (* Arm a crash that tears the NEXT black-box slot write (gen 3 back
     into slot 0): the observer fires before the sectors are stored, so
     the write that touches the region crashes after 4 of its 16
     sectors. The header (gen 3) lands; the payload is left as stale
     gen-1 bytes — readable, but failing the header's payload CRC. *)
  let in_blackbox sector =
    sector >= layout.Layout.blackbox_start
    && sector < layout.Layout.blackbox_start + layout.Layout.blackbox_sectors
  in
  Device.set_observer device
    (Some
       (fun ~rw ~sector ~count:_ ->
         if rw = `W && in_blackbox sector then
           Device.plan_write_crash device ~after_sectors:4 ~damage_tail:0));
  create 2;
  (match ops.Fs_ops.force () with
  | () -> Alcotest.fail "expected the armed crash during the checkpoint"
  | exception Device.Crash_during_write _ -> ());
  Device.set_observer device None;
  Device.cancel_write_crash device;
  (* The torn gen-3 slot fails its payload CRC; read falls back to the
     last complete checkpoint, generation 2. *)
  (match Blackbox.read device layout with
  | Error m -> Alcotest.failf "expected fallback checkpoint, got: %s" m
  | Ok cp ->
    check int "previous generation decoded" 2
      (Int64.to_int cp.Blackbox.state.Blackbox.gen);
    check int "from the untorn slot" 1 cp.Blackbox.slot);
  (* The torn header still bumps the generation (never reuse gen 3), and
     the next checkpoint overwrites the torn slot, not the good one. *)
  let next_gen, next_slot = Blackbox.probe device layout in
  check int "next generation skips the torn one" 4 (Int64.to_int next_gen);
  check int "next slot is the torn slot" 0 next_slot

(* Satellite sweep (ISSUE 5): tear the checkpoint slot write at EVERY
   sector offset, in every tear mode (prefix-only, zeroed, garbage,
   damaged-unreadable). Whatever is left behind, the region must decode
   to a valid generation — the freshly torn one if its meaningful bytes
   all landed, else the older slot's — probe must never reuse a torn
   generation's slot for the good checkpoint, and boot must come back
   clean without so much as a scavenge. *)
let test_torn_checkpoint_every_offset_and_mode () =
  let tears =
    [
      ("none", Device.Tear_none);
      ("zero", Device.Tear_zero);
      ("garbage", Device.Tear_garbage);
      ("damage", Device.Tear_damage 1);
    ]
  in
  let slot_sectors =
    (Layout.compute Geometry.small_test (Params.for_geometry Geometry.small_test))
      .Layout.blackbox_slot_sectors
  in
  List.iter
    (fun (tname, tear) ->
      for offset = 0 to slot_sectors - 1 do
        let ctx = Printf.sprintf "tear=%s offset=%d" tname offset in
        let device = fresh_volume () in
        Obs.Trace.enable (Device.trace device);
        let fs = fst (Fsd.boot device) in
        let ops = Fsd.ops fs in
        let layout = Fsd.layout fs in
        let create i =
          ignore
            (ops.Fs_ops.create
               ~name:(Printf.sprintf "torn/f%02d" i)
               ~data:(Bytes.make 700 'x')
              : Fs_ops.info)
        in
        (* Gen 1 into slot 0, gen 2 into slot 1; then tear gen 3's write
           (back into slot 0) at [offset] sectors. *)
        create 0;
        ops.Fs_ops.force ();
        create 1;
        ops.Fs_ops.force ();
        let in_blackbox sector =
          sector >= layout.Layout.blackbox_start
          && sector < layout.Layout.blackbox_start + layout.Layout.blackbox_sectors
        in
        Device.set_observer device
          (Some
             (fun ~rw ~sector ~count:_ ->
               if rw = `W && in_blackbox sector then
                 Device.plan_write_crash_tear device ~after_sectors:offset ~tear));
        create 2;
        (match ops.Fs_ops.force () with
        | () -> Alcotest.failf "%s: armed crash never fired" ctx
        | exception Device.Crash_during_write _ -> ());
        Device.set_observer device None;
        Device.cancel_write_crash device;
        (* Decode: the region always yields a checkpoint. A tear past the
           meaningful bytes leaves gen 3 whole (padding only was lost);
           any earlier tear fails a CRC (or reads as damage) and falls
           back to gen 2 in slot 1. *)
        let decoded =
          match Blackbox.read device layout with
          | Error m -> Alcotest.failf "%s: no valid checkpoint left: %s" ctx m
          | Ok cp ->
            let g = Int64.to_int cp.Blackbox.state.Blackbox.gen in
            check bool (ctx ^ ": decodes to gen 2 or 3") true (g = 2 || g = 3);
            if g = 2 then
              check int (ctx ^ ": fallback comes from the untorn slot") 1
                cp.Blackbox.slot;
            (g, cp.Blackbox.slot)
        in
        (* Probe never hands out a generation that may already be on disk
           (a torn gen-3 header still burns gen 3; one that never landed
           may be reissued), and never aims the next write at the good
           slot. *)
        let next_gen, next_slot = Blackbox.probe device layout in
        check bool (ctx ^ ": next gen is fresh") true
          (Int64.to_int next_gen > fst decoded);
        check bool (ctx ^ ": next slot is not the good one") true
          (next_slot <> snd decoded);
        (* Boot never aborts on a torn (even unreadable) black box. *)
        (match Fsd.try_boot device with
        | `Needs_scavenge reason ->
          Alcotest.failf "%s: boot fell to scavenge: %s" ctx reason
        | `Ok (fs2, _) ->
          check bool (ctx ^ ": committed file survives") true
            (Fsd.exists fs2 ~name:"torn/f00");
          check bool (ctx ^ ": second committed file survives") true
            (Fsd.exists fs2 ~name:"torn/f01");
          (* The next checkpoint lands in the torn slot and decodes,
             repairing even a damaged sector by overwriting it. *)
          ignore
            ((Fsd.ops fs2).Fs_ops.create ~name:"torn/post" ~data:(Bytes.make 640 'y')
              : Fs_ops.info);
          (Fsd.ops fs2).Fs_ops.force ();
          (match Blackbox.read device layout with
          | Error m -> Alcotest.failf "%s: post-boot checkpoint unreadable: %s" ctx m
          | Ok cp ->
            check bool (ctx ^ ": post-boot generation advanced") true
              (cp.Blackbox.state.Blackbox.gen >= next_gen)))
      done)
    tears

(* ------------------------------------------------------------------ *)
(* Profiler                                                             *)

(* The scripted workload is 10 creates, force, then 10 opens + 10 reads
   + 1 list + 10 deletes, force: the two ops-per-force samples must be
   exactly 10 and 31, and there is one force-to-force interval. *)
let test_profile_hand_check () =
  let device = fresh_volume () in
  let fs = fst (Fsd.boot device) in
  let ops = Fsd.ops fs in
  Script.warmup ops;
  let tr = Device.trace device in
  Obs.Trace.enable tr;
  Script.scripted ops;
  Obs.Trace.disable tr;
  let p = Obs.Profile.of_entries (Obs.Trace.to_list tr) in
  check int "two forces" 2 p.Obs.Profile.forces;
  check int "no empty forces" 0 p.Obs.Profile.empty_forces;
  check int "one checkpoint per force" 2 p.Obs.Profile.blackbox_checkpoints;
  let opf = p.Obs.Profile.ops_per_force in
  check int "two ops-per-force samples" 2 (Stats.n opf);
  check int "first burst: 10 creates" 10 (int_of_float (Stats.min opf));
  check int "second burst: 31 ops" 31 (int_of_float (Stats.max opf));
  check (Alcotest.float 0.001) "mean ops per force" 20.5 (Stats.mean opf);
  check int "one force interval" 1 (Stats.n p.Obs.Profile.force_interval_us);
  let latency op = List.assoc op p.Obs.Profile.op_latency in
  check int "10 create latencies" 10 (Stats.n (latency "create"));
  check int "10 open latencies" 10 (Stats.n (latency "open"));
  check int "10 delete latencies" 10 (Stats.n (latency "delete"));
  check int "1 list latency" 1 (Stats.n (latency "list"));
  (* Force latency is profiled, but forces are not counted in the
     ops-per-force samples (10 and 31 above already prove that). *)
  check int "2 force latencies" 2 (Stats.n (latency "force"));
  (* The log-third timeline has one point per traced append, all in the
     same third with growing occupancy. *)
  check int "two appends traced" 2 (List.length p.Obs.Profile.third_timeline);
  match p.Obs.Profile.third_timeline with
  | [ (_, t1, o1); (_, t2, o2) ] ->
    check int "same third" t1 t2;
    check bool "occupancy grows" true (o2 > o1)
  | _ -> Alcotest.fail "unexpected timeline shape"

(* ------------------------------------------------------------------ *)
(* Chrome export                                                        *)

let test_chrome_export () =
  let device = fresh_volume () in
  Obs.Trace.enable (Device.trace device);
  let fs = fst (Fsd.boot device) in
  let ops = Fsd.ops fs in
  Script.warmup ops;
  Script.scripted ops;
  let entries = Obs.Trace.to_list (Device.trace device) in
  let json = Obs.Export.chrome entries in
  let events =
    match json with
    | Obs.Jsonb.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Obs.Jsonb.Arr evs -> evs
      | _ -> Alcotest.fail "traceEvents is not an array")
    | _ -> Alcotest.fail "chrome export is not an object"
  in
  check bool "trace has events" true (events <> []);
  let completes = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Obs.Jsonb.Obj fields -> (
        match List.assoc "ph" fields with
        | Obs.Jsonb.Str "X" ->
          incr completes;
          (* Complete events carry both a timestamp and a duration, so
             begins and ends are balanced by construction. *)
          let num k =
            match List.assoc k fields with
            | Obs.Jsonb.Int n -> n
            | Obs.Jsonb.Float f -> int_of_float f
            | _ -> Alcotest.failf "%s is not numeric" k
          in
          check bool "ts >= 0" true (num "ts" >= 0);
          check bool "dur >= 0" true (num "dur" >= 0)
        | Obs.Jsonb.Str "i" | Obs.Jsonb.Str "M" -> ()
        | Obs.Jsonb.Str ph -> Alcotest.failf "unbalanced phase %S emitted" ph
        | _ -> Alcotest.fail "ph is not a string")
      | _ -> Alcotest.fail "trace event is not an object")
    events;
  (* Every closed span becomes exactly one complete slice on the op
     track; device transfers are complete slices too. *)
  let ends =
    List.length
      (List.filter
         (fun e ->
           match e.Trace.event with Trace.Op_end _ -> true | _ -> false)
         entries)
  in
  check bool "at least one X slice per closed span" true (!completes >= ends);
  (* The serialized form is non-trivial valid JSON as far as the builder
     is concerned: it renders and starts an object. *)
  let s = Obs.Jsonb.to_string json in
  check bool "serialises to an object" true (String.length s > 2 && s.[0] = '{')

(* ------------------------------------------------------------------ *)
(* Metrics percentiles                                                  *)

let test_metrics_percentiles () =
  let m = Obs.Metrics.create () in
  let d = Obs.Metrics.dist m "t.latency" in
  for v = 1 to 100 do
    Stats.add d (float_of_int v)
  done;
  match List.assoc "t.latency" (Obs.Metrics.snapshot m) with
  | Obs.Metrics.Dist { n; p50; p90; p99; _ } ->
    check (Alcotest.float 0.001) "p50" 50.0 p50;
    check (Alcotest.float 0.001) "p90" 90.0 p90;
    check (Alcotest.float 0.001) "p99" 99.0 p99;
    check int "n" 100 n
  | Obs.Metrics.Int _ -> Alcotest.fail "expected a distribution"

(* ------------------------------------------------------------------ *)
(* Checkpoint cadence (Params.blackbox_every_n_forces)                  *)

(* Count checkpoints by the generation the on-disk black box reaches
   after [forces] traced non-empty forces (no shutdown). *)
let gen_after_forces ~cadence ~forces =
  let geom = Geometry.small_test in
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let params =
    { (Params.for_geometry geom) with Params.blackbox_every_n_forces = cadence }
  in
  Fsd.format device params;
  Obs.Trace.enable (Device.trace device);
  let fs = fst (Fsd.boot ~params device) in
  for i = 1 to forces do
    ignore
      (Fsd.create fs
         ~name:(Printf.sprintf "cad/f%02d" i)
         (Bytes.make 600 'c')
        : Fs_ops.info);
    Fsd.force fs
  done;
  match Blackbox.read device (Fsd.layout fs) with
  | Ok cp -> Int64.to_int cp.Blackbox.state.Blackbox.gen
  | Error m -> Alcotest.failf "blackbox unreadable: %s" m

let test_checkpoint_cadence () =
  (* Default cadence 1: one checkpoint per non-empty force. *)
  check int "cadence 1: checkpoint every force" 6
    (gen_after_forces ~cadence:1 ~forces:6);
  (* Cadence 3: only every third non-empty force checkpoints. *)
  check int "cadence 3: every third force" 2
    (gen_after_forces ~cadence:3 ~forces:6)

let test_shutdown_checkpoints_despite_cadence () =
  (* A cadence larger than the run: no force ever checkpoints, but the
     shutdown checkpoint is unconditional, so the flight recorder is
     never left empty. *)
  let geom = Geometry.small_test in
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let params =
    { (Params.for_geometry geom) with Params.blackbox_every_n_forces = 100 }
  in
  Fsd.format device params;
  Obs.Trace.enable (Device.trace device);
  let fs = fst (Fsd.boot ~params device) in
  ignore (Fsd.create fs ~name:"cad/only" (Bytes.make 600 'c') : Fs_ops.info);
  Fsd.force fs;
  let layout = Fsd.layout fs in
  (match Blackbox.read device layout with
  | Ok cp -> Alcotest.failf "unexpected checkpoint gen %Ld before shutdown"
               cp.Blackbox.state.Blackbox.gen
  | Error _ -> ());
  Fsd.shutdown fs;
  match Blackbox.read device layout with
  | Ok cp ->
    check string "shutdown reason recorded" "shutdown"
      cp.Blackbox.state.Blackbox.reason
  | Error m -> Alcotest.failf "no shutdown checkpoint: %s" m

let suite =
  [
    Alcotest.test_case "event codec roundtrips" `Quick test_codec_roundtrip;
    Alcotest.test_case "checkpoint cadence throttles force checkpoints" `Quick
      test_checkpoint_cadence;
    Alcotest.test_case "shutdown checkpoints regardless of cadence" `Quick
      test_shutdown_checkpoints_despite_cadence;
    Alcotest.test_case "shutdown checkpoint decodes" `Quick
      test_shutdown_checkpoint;
    Alcotest.test_case "crash names the in-flight op" `Quick
      test_crash_names_in_flight_op;
    Alcotest.test_case "torn checkpoint falls back a generation" `Quick
      test_torn_checkpoint_falls_back;
    Alcotest.test_case "torn checkpoint sweep: every offset, every tear mode"
      `Quick test_torn_checkpoint_every_offset_and_mode;
    Alcotest.test_case "profiler matches hand-computed workload" `Quick
      test_profile_hand_check;
    Alcotest.test_case "chrome export is balanced" `Quick test_chrome_export;
    Alcotest.test_case "metrics expose p90/p99" `Quick test_metrics_percentiles;
  ]
