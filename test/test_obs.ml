(* Observability: the ring-buffer trace, the metrics registry, the
   trace fold behind [cedar stats] (Tables) — the hand-counted Tables
   3/4 analogue, per-op latency and group commit for the scripted
   workload, and its agreement with the registry's counts — and the
   Chrome export. *)

open Cedar_util
open Cedar_disk
open Cedar_obs
module Fsd = Cedar_fsd.Fsd
module Params = Cedar_fsd.Params
module Script = Cedar_workload.Obs_script

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let content n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

let small_fs () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  (device, fst (Fsd.boot device))

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)

let test_ring_wraparound () =
  let tr = Trace.create () in
  check bool "disabled by default" false (Trace.enabled tr);
  Trace.enable ~capacity:8 tr;
  for i = 1 to 20 do
    Trace.emit tr ~at:i (Trace.Log_force { units = i; empty = false })
  done;
  check int "length capped at capacity" 8 (Trace.length tr);
  check int "overwritten entries counted" 12 (Trace.dropped tr);
  let seqs = List.map (fun e -> e.Trace.seq) (Trace.to_list tr) in
  check (Alcotest.list int) "oldest-first, newest survive"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ] seqs;
  Trace.clear tr;
  check int "clear empties" 0 (Trace.length tr);
  check int "clear resets dropped" 0 (Trace.dropped tr)

let test_disabled_is_inert () =
  let tr = Trace.create () in
  Trace.emit tr ~at:0 (Trace.Leader_piggyback { sector = 1 });
  check int "emit on a disabled trace records nothing" 0 (Trace.length tr);
  check int "begin_span returns the null span" 0
    (Trace.begin_span tr ~at:0 ~op:"x" ~name:"");
  Trace.end_span tr ~at:1 0;
  Trace.enable ~capacity:4 tr;
  Trace.emit tr ~at:2 (Trace.Leader_piggyback { sector = 2 });
  (* Disabled emission must not have consumed sequence numbers: the
     first real entry is #1 (the disabled path is a single branch). *)
  (match Trace.to_list tr with
  | [ e ] -> check int "no seq consumed while disabled" 1 e.Trace.seq
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  Trace.disable tr;
  Trace.emit tr ~at:3 (Trace.Leader_piggyback { sector = 3 });
  check int "entries survive disable; no new ones" 1 (Trace.length tr)

let test_span_nesting () =
  let tr = Trace.create () in
  Trace.enable tr;
  let outer = Trace.begin_span tr ~at:0 ~op:"outer" ~name:"o" in
  Trace.emit tr ~at:1 (Trace.Leader_piggyback { sector = 7 });
  let inner = Trace.begin_span tr ~at:2 ~op:"inner" ~name:"i" in
  Trace.emit tr ~at:3 (Trace.Dev_read { dev = 0; sector = 0; count = 1; us = 5 });
  Trace.end_span tr ~at:4 inner;
  Trace.emit tr ~at:5
    (Trace.Dev_write { dev = 0; sector = 0; count = 1; us = 5 });
  Trace.end_span tr ~at:6 outer;
  match Trace.to_list tr with
  | [ a; b; c; d; e; f; g ] ->
    check int "outer opens at top level" 0 a.Trace.span;
    check int "event under outer" outer b.Trace.span;
    check int "inner opens under outer" outer c.Trace.span;
    check int "event under inner" inner d.Trace.span;
    check int "inner close carries its own span" inner e.Trace.span;
    check int "after inner closes, outer is current again" outer f.Trace.span;
    check int "outer close" outer g.Trace.span;
    (match e.Trace.event with
    | Trace.Op_end { op; us } ->
      check string "inner op" "inner" op;
      check int "inner duration" 2 us
    | _ -> Alcotest.fail "expected Op_end")
  | l -> Alcotest.failf "expected 7 entries, got %d" (List.length l)

let test_abandoned_span_unwound () =
  let tr = Trace.create () in
  Trace.enable tr;
  let outer = Trace.begin_span tr ~at:0 ~op:"outer" ~name:"" in
  let _inner = Trace.begin_span tr ~at:1 ~op:"inner" ~name:"" in
  (* inner never closed (exception path); closing outer discards it *)
  Trace.end_span tr ~at:2 outer;
  Trace.emit tr ~at:3 (Trace.Leader_piggyback { sector = 1 });
  let last = List.nth (Trace.to_list tr) 3 in
  check int "back at top level" 0 last.Trace.span

(* [Trace.span] is the begin/end pair around [f], closed on the
   exception path too, and exactly [f ()] while tracing is off. *)
let test_span_function () =
  let clock = Simclock.create () in
  let by_pair = Trace.create () and by_span = Trace.create () in
  Trace.enable by_pair;
  Trace.enable by_span;
  let id = Trace.begin_span by_pair ~at:0 ~op:"create" ~name:"f" in
  Trace.emit by_pair ~at:3 (Trace.Leader_piggyback { sector = 7 });
  Trace.end_span by_pair ~at:5 id;
  let r =
    Trace.span by_span clock ~op:"create" ~name:"f" (fun () ->
        Simclock.advance clock 3;
        Trace.emit by_span ~at:(Simclock.now clock)
          (Trace.Leader_piggyback { sector = 7 });
        Simclock.advance clock 2;
        42)
  in
  check int "returns f's value" 42 r;
  check bool "same entries as the begin/end pair" true
    (Trace.to_list by_pair = Trace.to_list by_span);
  (match
     Trace.span by_span clock ~op:"delete" ~name:"g" (fun () ->
         Simclock.advance clock 4;
         raise Exit)
   with
  | _ -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  (match List.rev (Trace.to_list by_span) with
  | { Trace.span; event = Trace.Op_end { op; us }; _ }
    :: { Trace.seq; event = Trace.Op_begin _; _ } :: _ ->
    check string "raising span closed" "delete" op;
    check int "its duration" 4 us;
    check int "under its own id" seq span
  | _ -> Alcotest.fail "expected Op_begin, Op_end for the raising span");
  check int "back at top level" 0 (Trace.current_span by_span);
  let off = Trace.create () in
  check int "off: f's value" 7
    (Trace.span off clock ~op:"x" ~name:"" (fun () -> 7));
  check int "off: nothing recorded" 0 (Trace.length off);
  Trace.enable off;
  Trace.emit off ~at:0 (Trace.Leader_piggyback { sector = 1 });
  check int "off: no seq consumed" 1 (List.hd (Trace.to_list off)).Trace.seq

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "x.count" in
  Metrics.inc c;
  Metrics.add c 4;
  check (Alcotest.option int) "counter read" (Some 5) (Metrics.read m "x.count");
  check int "handle read" 5 (Metrics.counter_value c);
  let cell = ref 7 in
  Metrics.gauge m "x.gauge" (fun () -> !cell);
  cell := 9;
  check (Alcotest.option int) "gauge samples live state" (Some 9)
    (Metrics.read m "x.gauge");
  let d = Metrics.dist m "x.dist" in
  Stats.add d 3.0;
  check bool "dist registered" true (Metrics.read_dist m "x.dist" <> None);
  check (Alcotest.option int) "dist is not a counter" None (Metrics.read m "x.dist");
  (* Re-registration replaces with a fresh zeroed cell (per-boot reset). *)
  let c2 = Metrics.counter m "x.count" in
  check (Alcotest.option int) "re-register zeroes" (Some 0) (Metrics.read m "x.count");
  Metrics.inc c;
  (* the detached old handle must not affect the registry *)
  check (Alcotest.option int) "old handle detached" (Some 0) (Metrics.read m "x.count");
  Metrics.inc c2;
  check (Alcotest.option int) "new handle live" (Some 1) (Metrics.read m "x.count");
  let names = List.map fst (Metrics.snapshot m) in
  check (Alcotest.list string) "snapshot is name-sorted"
    (List.sort compare names) names

let test_jsonb () =
  let j =
    Jsonb.Obj
      [
        ("a", Jsonb.Int 1);
        ("s", Jsonb.Str "x\"y\n");
        ("l", Jsonb.Arr [ Jsonb.Bool true; Jsonb.Null; Jsonb.Float 1.5 ]);
      ]
  in
  check string "compact encoding"
    "{\"a\":1,\"s\":\"x\\\"y\\n\",\"l\":[true,null,1.5]}" (Jsonb.to_string j);
  check string "integral floats keep a decimal point" "[2.0]"
    (Jsonb.to_string (Jsonb.Arr [ Jsonb.Float 2.0 ]))

(* ------------------------------------------------------------------ *)
(* Event sequences per §4/§5: what each FSD operation costs            *)

(* Salient event kinds, with seeks dropped (they depend on arm position). *)
let kinds entries =
  List.filter_map
    (fun e ->
      match e.Trace.event with
      | Trace.Dev_seek _ -> None
      | Trace.Dev_read _ -> Some "dev-read"
      | Trace.Dev_write _ -> Some "dev-write"
      | Trace.Log_append _ -> Some "log-append"
      | Trace.Log_force { empty = true; _ } -> Some "log-force-empty"
      | Trace.Log_force _ -> Some "log-force"
      | Trace.Fnt_write_twice _ -> Some "fnt-write-twice"
      | Trace.Leader_piggyback _ -> Some "leader-piggyback"
      | Trace.Op_begin { op; _ } -> Some ("begin:" ^ op)
      | Trace.Op_end { op; _ } -> Some ("end:" ^ op)
      | _ -> None)
    entries

let traced_kinds device f =
  let tr = Device.trace device in
  Trace.clear tr;
  Trace.enable tr;
  f ();
  Trace.disable tr;
  kinds (Trace.to_list tr)

let seq = Alcotest.list string

let test_op_event_sequences () =
  let device, fs = small_fs () in
  (* Warm the name-table cache so the sequences are steady-state. *)
  ignore (Fsd.create fs ~name:"s/warm" (content 100 0));
  Fsd.force fs;
  (* create: exactly one combined leader+data write, nothing logged yet *)
  check seq "create = one combined write (§5.3)"
    [ "begin:create"; "dev-write"; "end:create" ]
    (traced_kinds device (fun () ->
         ignore (Fsd.create fs ~name:"s/f1" (content 900 1))));
  (* force: the pending FNT update goes out as one log record *)
  check seq "force = one log append (§5.4)"
    [ "begin:force"; "dev-write"; "log-append"; "log-force"; "end:force" ]
    (traced_kinds device (fun () -> Fsd.force fs));
  (* a second force with nothing dirty writes nothing *)
  check seq "empty force costs no I/O"
    [ "begin:force"; "log-force-empty"; "end:force" ]
    (traced_kinds device (fun () -> Fsd.force fs));
  (* delete: pure metadata, absorbed by group commit (§5.4) *)
  check seq "delete costs no I/O"
    [ "begin:delete"; "end:delete" ]
    (traced_kinds device (fun () -> Fsd.delete fs ~name:"s/f1"))

(* ------------------------------------------------------------------ *)
(* Table replayers on the scripted workload (the [cedar stats] path)   *)

let scripted_entries () =
  let device, fs = small_fs () in
  let ops = Fsd.ops fs in
  Script.warmup ops;
  let tr = Device.trace device in
  Trace.enable tr;
  Script.scripted ops;
  Trace.disable tr;
  Trace.to_list tr

let test_per_op_hand_counts () =
  let entries = scripted_entries () in
  let rows = Tables.per_op entries in
  let row op =
    match List.find_opt (fun r -> r.Tables.op = op) rows with
    | Some r -> r
    | None -> Alcotest.failf "no per-op row for %s" op
  in
  (* Hand-counted Tables 3/4 analogue for n=10 files of 900 bytes:
     create = 1 combined leader+data write (1 leader + 2 data sectors),
     open/delete/list = 0 I/Os, warm read_all = 1 read of 2 sectors. *)
  let c = row "create" in
  check int "create calls" Script.n c.Tables.calls;
  check int "create reads" 0 c.Tables.reads;
  check int "create writes" Script.n c.Tables.writes;
  check int "create sectors written" (3 * Script.n) c.Tables.sectors_written;
  let o = row "open" in
  check int "open calls" Script.n o.Tables.calls;
  check int "open I/Os" 0 (o.Tables.reads + o.Tables.writes);
  let d = row "delete" in
  check int "delete calls" Script.n d.Tables.calls;
  check int "delete I/Os" 0 (d.Tables.reads + d.Tables.writes);
  let l = row "list" in
  check int "list calls" 1 l.Tables.calls;
  check int "list I/Os" 0 (l.Tables.reads + l.Tables.writes);
  let r = row "read_all" in
  check int "read calls" Script.n r.Tables.calls;
  check int "read reads" Script.n r.Tables.reads;
  check int "read writes" 0 r.Tables.writes;
  check int "read sectors" (2 * Script.n) r.Tables.sectors_read;
  let f = row "force" in
  check int "force calls" 2 f.Tables.calls;
  check int "force reads" 0 f.Tables.reads;
  check int "force writes: one log record each" 2 f.Tables.writes

(* Amortised attribution: force-interval log I/O redistributed across
   the batch's mutating ops. Redistribution only moves write I/O
   between rows, so the totals must be conserved exactly, and the ops
   that are free under raw attribution (delete — pure metadata) must
   show their share of the log record they ride in. *)
let test_amortised_attribution () =
  let entries = scripted_entries () in
  let rows = Tables.per_op entries in
  let row op = List.find (fun r -> r.Tables.op = op) rows in
  let fsum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let isum f = List.fold_left (fun a r -> a + f r) 0 rows in
  let fl = Alcotest.float 1e-6 in
  check fl "write count conserved"
    (float_of_int (isum (fun r -> r.Tables.writes)))
    (fsum (fun r -> r.Tables.amortised_writes));
  check fl "sectors written conserved"
    (float_of_int (isum (fun r -> r.Tables.sectors_written)))
    (fsum (fun r -> r.Tables.amortised_sectors_written));
  let d = row "delete" in
  check int "delete raw I/O stays zero" 0 (d.Tables.reads + d.Tables.writes);
  check bool "delete carries its share of the force" true
    (d.Tables.amortised_ios > 0.0
    && d.Tables.amortised_sectors_written > 0.0);
  let f = row "force" in
  check bool "force surrenders its append writes" true
    (f.Tables.amortised_writes < float_of_int f.Tables.writes);
  (* reads are untouched by amortisation *)
  let r = row "read_all" in
  check fl "read row: amortised = raw"
    (float_of_int (r.Tables.reads + r.Tables.writes))
    r.Tables.amortised_ios

let test_log_activity () =
  let entries = scripted_entries () in
  let log = Tables.log_activity entries in
  check int "records" 2 log.Tables.records;
  check int "forces" 2 log.Tables.forces;
  check int "empty forces" 0 log.Tables.empty_forces;
  check bool "every record carries data" true (log.Tables.data_sectors > 0);
  check bool "headers cost extra sectors" true
    (log.Tables.total_sectors > log.Tables.data_sectors)

let test_recovery_phases_traced () =
  let device, fs = small_fs () in
  ignore (Fsd.create fs ~name:"r/a" (content 400 1));
  Fsd.force fs;
  ignore (Fsd.create fs ~name:"r/b" (content 400 2));
  (* crash: boot again with no shutdown, tracing the recovery *)
  let tr = Device.trace device in
  Trace.enable tr;
  let _fs2, report = Fsd.boot device in
  Trace.disable tr;
  let phases = Tables.recovery_phases (Trace.to_list tr) in
  let names = List.map (fun p -> p.Tables.phase) phases in
  check bool "log-replay phase present" true (List.mem "log-replay" names);
  check bool "vam phase present" true
    (List.exists
       (fun n -> String.length n > 4 && String.sub n 0 4 = "vam-")
       names);
  check bool "total present" true (List.mem "total" names);
  let us_of p = (List.find (fun r -> r.Tables.phase = p) phases).Tables.us in
  check int "total matches the boot report" report.Fsd.total_us (us_of "total")

(* ------------------------------------------------------------------ *)
(* Latency and group commit, from the same fold                         *)

(* The scripted workload is 10 creates, force, then 10 opens + 10 reads
   + 1 list + 10 deletes, force: the two ops-per-force samples must be
   exactly 10 and 31, and there is one force-to-force interval. *)
let test_profile_hand_check () =
  let entries = scripted_entries () in
  let log = Tables.log_activity entries in
  check int "two forces" 2 log.Tables.forces;
  check int "no empty forces" 0 log.Tables.empty_forces;
  let opf = log.Tables.ops_per_force in
  check int "two ops-per-force samples" 2 (Stats.n opf);
  check int "first burst: 10 creates" 10 (int_of_float (Stats.min opf));
  check int "second burst: 31 ops" 31 (int_of_float (Stats.max opf));
  check (Alcotest.float 0.001) "mean ops per force" 20.5 (Stats.mean opf);
  check int "one force interval" 1 (Stats.n log.Tables.force_interval_us);
  let rows = Tables.per_op entries in
  let latency op = (List.find (fun r -> r.Tables.op = op) rows).Tables.latency_us in
  check int "10 create latencies" 10 (Stats.n (latency "create"));
  check int "10 open latencies" 10 (Stats.n (latency "open"));
  check int "10 delete latencies" 10 (Stats.n (latency "delete"));
  check int "1 list latency" 1 (Stats.n (latency "list"));
  (* Force latency is recorded, but forces are not counted in the
     ops-per-force samples (10 and 31 above already prove that). *)
  check int "2 force latencies" 2 (Stats.n (latency "force"));
  (* A row's calls and op_us are its latency series' count and total:
     one sample per closed span of that label, each its duration. *)
  List.iter
    (fun r ->
      let op = r.Tables.op in
      let spans =
        List.filter_map
          (fun (e : Trace.entry) ->
            match e.Trace.event with
            | Trace.Op_end { op = o; us } when o = op -> Some us
            | _ -> None)
          entries
      in
      check int (op ^ ": one latency sample per span") (List.length spans)
        (Stats.n r.Tables.latency_us);
      check int (op ^ ": calls = latency n") (Stats.n r.Tables.latency_us)
        r.Tables.calls;
      check int (op ^ ": op_us = sum of span durations")
        (List.fold_left ( + ) 0 spans) r.Tables.op_us;
      check int (op ^ ": op_us = latency total")
        (int_of_float (Stats.total r.Tables.latency_us))
        r.Tables.op_us)
    rows;
  (* The log-third timeline has one point per traced append, all in the
     same third with growing occupancy. *)
  check int "two appends traced" 2 (List.length log.Tables.third_timeline);
  match log.Tables.third_timeline with
  | [ (_, t1, o1); (_, t2, o2) ] ->
    check int "same third" t1 t2;
    check bool "occupancy grows" true (o2 > o1)
  | _ -> Alcotest.fail "unexpected timeline shape"

(* The trace fold and the metrics registry count the same things down
   two code paths: over a traced window the fold's counts must equal the
   registry's deltas. *)
let test_fold_agrees_with_registry () =
  let device, fs = small_fs () in
  let ops = Fsd.ops fs in
  Script.warmup ops;
  let read name = Option.value ~default:0 (Metrics.read (Device.metrics device) name) in
  let names =
    [
      "fsd.forces";
      "fsd.empty_forces";
      "log.records";
      "log.total_sectors";
      "log.data_sectors";
      "fsd.ops";
    ]
  in
  let before = List.map read names in
  let tr = Device.trace device in
  Trace.enable ~capacity:(1 lsl 16) tr;
  Script.scripted ops;
  Script.paper_bulk ops;
  Trace.disable tr;
  check int "no trace entry lost" 0 (Trace.dropped tr);
  let delta = List.map2 (fun name b -> (name, read name - b)) names before in
  let entries = Trace.to_list tr in
  let log = Tables.log_activity entries in
  let op_calls =
    List.fold_left
      (fun acc r -> if r.Tables.op = "force" then acc else acc + r.Tables.calls)
      0 (Tables.per_op entries)
  in
  List.iter
    (fun (name, fold, want) ->
      check int (name ^ ": fold = registry delta") (List.assoc name delta) fold;
      check int (name ^ ": count") want fold)
    [
      ("fsd.forces", log.Tables.forces, 17);
      ("fsd.empty_forces", log.Tables.empty_forces, 3);
      ("log.records", log.Tables.records, 17);
      ("log.total_sectors", log.Tables.total_sectors, 305);
      ("log.data_sectors", log.Tables.data_sectors, 110);
      ("fsd.ops", op_calls, 342);
    ]

(* ------------------------------------------------------------------ *)
(* Chrome export                                                        *)

let test_chrome_export () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  Trace.enable (Device.trace device);
  let fs = fst (Fsd.boot device) in
  let ops = Fsd.ops fs in
  Script.warmup ops;
  Script.scripted ops;
  let entries = Trace.to_list (Device.trace device) in
  let json = Export.chrome entries in
  let events =
    match json with
    | Jsonb.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Jsonb.Arr evs -> evs
      | _ -> Alcotest.fail "traceEvents is not an array")
    | _ -> Alcotest.fail "chrome export is not an object"
  in
  check bool "trace has events" true (events <> []);
  let completes = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Jsonb.Obj fields -> (
        match List.assoc "ph" fields with
        | Jsonb.Str "X" ->
          incr completes;
          (* Complete events carry both a timestamp and a duration, so
             begins and ends are balanced by construction. *)
          let num k =
            match List.assoc k fields with
            | Jsonb.Int n -> n
            | Jsonb.Float f -> int_of_float f
            | _ -> Alcotest.failf "%s is not numeric" k
          in
          check bool "ts >= 0" true (num "ts" >= 0);
          check bool "dur >= 0" true (num "dur" >= 0)
        | Jsonb.Str "i" | Jsonb.Str "M" -> ()
        | Jsonb.Str ph -> Alcotest.failf "unbalanced phase %S emitted" ph
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
  let s = Jsonb.to_string json in
  check bool "serialises to an object" true (String.length s > 2 && s.[0] = '{')

(* ------------------------------------------------------------------ *)
(* Metrics percentiles                                                  *)

let test_metrics_percentiles () =
  let m = Metrics.create () in
  let d = Metrics.dist m "t.latency" in
  for v = 1 to 100 do
    Stats.add d (float_of_int v)
  done;
  match List.assoc "t.latency" (Metrics.snapshot m) with
  | Metrics.Dist { n; p50; p90; p99; _ } ->
    check (Alcotest.float 0.001) "p50" 50.0 p50;
    check (Alcotest.float 0.001) "p90" 90.0 p90;
    check (Alcotest.float 0.001) "p99" 99.0 p99;
    check int "n" 100 n
  | Metrics.Int _ -> Alcotest.fail "expected a distribution"

let suite =
  [
    ("ring wrap-around", `Quick, test_ring_wraparound);
    ("disabled trace is inert", `Quick, test_disabled_is_inert);
    ("span nesting", `Quick, test_span_nesting);
    ("abandoned span unwound", `Quick, test_abandoned_span_unwound);
    ("span function", `Quick, test_span_function);
    ("metrics registry", `Quick, test_metrics_registry);
    ("json builder", `Quick, test_jsonb);
    ("op event sequences (§4)", `Quick, test_op_event_sequences);
    ("per-op I/O hand counts (Tables 3/4)", `Quick, test_per_op_hand_counts);
    ("amortised force attribution", `Quick, test_amortised_attribution);
    ("log activity (Table 2)", `Quick, test_log_activity);
    ("recovery phases traced (Table 5)", `Quick, test_recovery_phases_traced);
    ("profiler matches hand-computed workload", `Quick, test_profile_hand_check);
    ("trace fold agrees with the registry", `Quick, test_fold_agrees_with_registry);
    ("chrome export is balanced", `Quick, test_chrome_export);
    ("metrics expose p90/p99", `Quick, test_metrics_percentiles);
  ]
