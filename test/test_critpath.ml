(* Per-op latency anatomy (ISSUE 8): the conservation invariant on a
   hand-built two-client script, byte-identical why-JSON across runs,
   and the zero-cost contract of the lifecycle instrumentation when
   tracing is off. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server
module Obs = Cedar_obs
module Crit = Cedar_obs.Critpath

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fresh_fs () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  let params = Params.for_geometry Geometry.small_test in
  Fsd.format device params;
  let fs, _ = Fsd.boot device in
  fs

(* Two clients with deliberate structure: both creates arrive together
   at t=1ms (so one queues behind the other's execute, and both park for
   the group commit), then a read and a delete arrive far later, alone.
   The waits this script is built to produce: parked+append > 0 for the
   creates (they are mutations and must wait for a force), parked =
   append = 0 for the read (always-durable, acked at execute end), and
   queue > 0 for whichever create the single-threaded scheduler reaches
   second. *)
let scripts =
  [|
    [
      C.At 1_000;
      C.Op (C.Create { name = "c00/a"; bytes = 512; fill = 1 });
      C.At 2_000_000;
      C.Op (C.Read "c00/a");
    ];
    [
      C.At 1_000;
      C.Op (C.Create { name = "c01/b"; bytes = 512; fill = 2 });
      C.At 2_000_000;
      C.Op (C.Delete "c01/b");
    ];
  |]

let traced_run () =
  let fs = fresh_fs () in
  let tr = Fsd.trace fs in
  Obs.Trace.enable ~capacity:(1 lsl 16) tr;
  let report = S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  Obs.Trace.disable tr;
  (report, Crit.fold (Obs.Trace.to_list tr))

let find_op t ~client ~opseq =
  List.find
    (fun (o : Crit.op_record) -> o.Crit.client = client && o.Crit.opseq = opseq)
    t.Crit.ops

let test_conservation () =
  let report, t = traced_run () in
  check int "every scripted op completed" 4 report.S.total_ops;
  check int "all four lifecycles folded" 4 (List.length t.Crit.ops);
  check int "no orphans" 0 t.Crit.orphans;
  check int "no unfinished lifecycles" 0 t.Crit.unfinished;
  check bool "fold reports conservation" true t.Crit.all_conserved;
  List.iter
    (fun (o : Crit.op_record) ->
      let sum =
        o.Crit.queue_us + o.Crit.execute_us + o.Crit.append_us + o.Crit.parked_us
      in
      check int
        (Printf.sprintf "client %d op %d: phases sum to end-to-end" o.Crit.client
           o.Crit.opseq)
        (Crit.total_us o) sum;
      check bool "conserved predicate agrees" true (Crit.conserved o);
      check bool "device time fits inside execute" true
        (o.Crit.seek_us + o.Crit.transfer_us <= o.Crit.execute_us))
    t.Crit.ops

let test_known_waits () =
  let _, t = traced_run () in
  let c0 = find_op t ~client:0 ~opseq:1 in
  let c1 = find_op t ~client:1 ~opseq:1 in
  let r0 = find_op t ~client:0 ~opseq:2 in
  check bool "create (client 0) waited for the force" true
    (c0.Crit.append_us + c0.Crit.parked_us > 0);
  check bool "create (client 1) waited for the force" true
    (c1.Crit.append_us + c1.Crit.parked_us > 0);
  check bool "one create queued behind the other's execute" true
    (c0.Crit.queue_us > 0 || c1.Crit.queue_us > 0);
  check int "read is acked at execute end: no append" 0 r0.Crit.append_us;
  check int "read is acked at execute end: no park" 0 r0.Crit.parked_us;
  check bool "read did real device work" true (r0.Crit.execute_us > 0)

(* Own-timeline trace stamps: on a two-volume set each device runs on
   its own timeline, so commands are stamped at service start (the busy
   horizon), not issue time. Commands on one device must therefore
   never overlap each other, and the per-op seek/transfer sub-split must
   still fit inside execute. *)
let test_deferred_no_overlap () =
  let clock = Simclock.create () in
  let vset =
    Cedar_volumes.Volume_set.create_fresh ~geom:Geometry.small_test ~clock 2
  in
  let tr = Cedar_volumes.Volume_set.trace vset in
  Obs.Trace.enable ~capacity:(1 lsl 16) tr;
  let mk vid tag =
    let dir = Cedar_fsbase.Fname.shard_dir ~shards:2 vid in
    List.concat_map
      (fun i ->
        [
          C.Think 3_000;
          C.Op
            (C.Create
               {
                 name = Printf.sprintf "%s/%s/f%02d" dir tag i;
                 bytes = 900;
                 fill = i;
               });
        ])
      (List.init 6 Fun.id)
  in
  let report = S.serve_volumes vset [| mk 0 "a"; mk 1 "b" |] in
  Obs.Trace.disable tr;
  check int "all creates acked" 12 report.S.mutations_acked;
  let entries = Obs.Trace.to_list tr in
  (* Per device: Dev_read/Dev_write intervals [at, at+us] never overlap.
     (Dev_seek shares its command's start by design — it is part of the
     command — so only the commands themselves are checked.) *)
  let seen_dev = Hashtbl.create 4 in
  let last_end = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Trace.entry) ->
      match e.Obs.Trace.event with
      | Obs.Trace.Dev_read { dev; us; _ } | Obs.Trace.Dev_write { dev; us; _ }
        ->
        Hashtbl.replace seen_dev dev ();
        let prev = Option.value ~default:0 (Hashtbl.find_opt last_end dev) in
        check bool
          (Printf.sprintf "dev %d: command at %d starts after previous end %d"
             dev e.Obs.Trace.at_us prev)
          true
          (e.Obs.Trace.at_us >= prev);
        Hashtbl.replace last_end dev (e.Obs.Trace.at_us + us)
      | _ -> ())
    entries;
  check int "both devices appear in the trace" 2 (Hashtbl.length seen_dev);
  (* Re-check the seek/transfer sub-split under service-start stamping:
     phase conservation must still hold, and the charges stay coherent
     (transfer is the command total minus seeks, never negative; the
     creates did real device work). Containment inside [execute_us] is a
     synchronous-device invariant only — on a backed-up own timeline a
     command is serviced at the busy horizon, after the issuing op's
     execute window has already closed, so the sub-split may legally
     exceed execute here. *)
  let t = Crit.fold entries in
  check bool "lifecycles folded" true (List.length t.Crit.ops > 0);
  check bool "phase conservation holds under deferred stamping" true
    t.Crit.all_conserved;
  let dev_total = ref 0 in
  List.iter
    (fun (o : Crit.op_record) ->
      check bool
        (Printf.sprintf "client %d op %d: sub-split non-negative" o.Crit.client
           o.Crit.opseq)
        true
        (o.Crit.seek_us >= 0 && o.Crit.transfer_us >= 0);
      dev_total := !dev_total + o.Crit.seek_us + o.Crit.transfer_us)
    t.Crit.ops;
  check bool "ops were charged real device time" true (!dev_total > 0)

let test_json_deterministic () =
  let _, a = traced_run () in
  let _, b = traced_run () in
  let ja = Obs.Jsonb.to_string (Crit.to_json a) in
  let jb = Obs.Jsonb.to_string (Crit.to_json b) in
  check bool "why --json is byte-identical across runs" true
    (String.equal ja jb)

(* The zero-cost contract: with tracing off, the lifecycle
   instrumentation emits nothing — the trace stays empty, the kind
   labels are shared constants (no per-op string allocation; the op
   record the phase counters are charged from is the only one), and the
   run's allocation profile is pinned: two identical tracing-off runs
   allocate exactly the same number of bytes, and turning tracing on
   strictly increases it (i.e. the [Trace.enabled] guard really skips
   event construction rather than building and discarding it). *)
let serve_words ~trace =
  let fs = fresh_fs () in
  let tr = Fsd.trace fs in
  if trace then Obs.Trace.enable ~capacity:(1 lsl 16) tr;
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let report = S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  let after = Gc.allocated_bytes () in
  check int "run completed" 4 report.S.total_ops;
  check bool "trace emptiness matches the switch" true
    (trace <> (Obs.Trace.to_list tr = []));
  after -. before

let test_zero_cost_when_off () =
  let op = C.Create { name = "x"; bytes = 1; fill = 0 } in
  check bool "op_kind returns a shared constant, not a fresh string" true
    (C.op_kind op == C.op_kind op);
  let off1 = serve_words ~trace:false in
  let off2 = serve_words ~trace:false in
  let on = serve_words ~trace:true in
  check bool
    (Printf.sprintf "tracing-off allocation is pinned (%.0f = %.0f bytes)" off1
       off2)
    true (off1 = off2);
  check bool
    (Printf.sprintf "tracing allocates strictly more (%.0f off vs %.0f on)"
       off1 on)
    true (on > off1)

let suite =
  [
    ("conservation: phases sum exactly to end-to-end", `Quick, test_conservation);
    ("known waits: park/append vs queue vs read", `Quick, test_known_waits);
    ( "deferred 2-volume: per-device commands never overlap",
      `Quick,
      test_deferred_no_overlap );
    ("why --json byte-identical across runs", `Quick, test_json_deterministic);
    ("tracing off allocates nothing new (pinned)", `Quick, test_zero_cost_when_off);
  ]
