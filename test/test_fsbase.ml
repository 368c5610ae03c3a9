open Cedar_fsbase

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Run_table                                                           *)

let rt runs = Run_table.of_runs (List.map (fun (s, l) -> { Run_table.start = s; len = l }) runs)

let test_run_table_basics () =
  let t = rt [ (10, 3); (20, 2) ] in
  check int "pages" 5 (Run_table.pages t);
  check int "page 0" 10 (Run_table.sector_of_page t 0);
  check int "page 2" 12 (Run_table.sector_of_page t 2);
  check int "page 3" 20 (Run_table.sector_of_page t 3);
  check int "page 4" 21 (Run_table.sector_of_page t 4);
  check int "contig at 0" 3 (Run_table.contiguous_prefix t ~page:0);
  check int "contig at 1" 2 (Run_table.contiguous_prefix t ~page:1);
  check int "contig at 3" 2 (Run_table.contiguous_prefix t ~page:3)

let test_run_table_coalesce () =
  let t = rt [ (10, 3); (13, 2) ] in
  check int "coalesced to one run" 1 (List.length (Run_table.runs t));
  check int "pages" 5 (Run_table.pages t)

let test_run_table_append () =
  let t = Run_table.append Run_table.empty { Run_table.start = 5; len = 2 } in
  let t = Run_table.append t { Run_table.start = 7; len = 1 } in
  check int "coalesced" 1 (List.length (Run_table.runs t));
  let t = Run_table.append t { Run_table.start = 100; len = 1 } in
  check int "two runs" 2 (List.length (Run_table.runs t))

let test_run_table_overlap_rejected () =
  (match rt [ (10, 3); (11, 2) ] with
  | _ -> Alcotest.fail "expected overlap rejection"
  | exception Invalid_argument _ -> ());
  match rt [ (20, 2); (10, 15) ] with
  | _ -> Alcotest.fail "expected overlap rejection (reverse order)"
  | exception Invalid_argument _ -> ()

let test_run_table_codec () =
  let t = rt [ (10, 3); (20, 4); (99, 1) ] in
  let w = Cedar_util.Bytebuf.Writer.create () in
  Run_table.encode w t;
  let r = Cedar_util.Bytebuf.Reader.of_bytes (Cedar_util.Bytebuf.Writer.contents w) in
  check bool "roundtrip" true (Run_table.equal t (Run_table.decode r))

(* A byte size fits a run table when it needs exactly its pages, one at
   least: the boundaries either side of each page count, a negative size
   never fits, and neither does a size whose page count would overflow
   if computed as [(size + sector_bytes - 1) / sector_bytes]. *)
let test_run_table_holds () =
  let holds t byte_size = Run_table.holds t ~sector_bytes:512 ~byte_size in
  let one = rt [ (10, 1) ] and two = rt [ (10, 2) ] in
  List.iter
    (fun (what, t, byte_size, want) -> check bool what want (holds t byte_size))
    [
      ("empty file, one page", one, 0, true);
      ("one byte", one, 1, true);
      ("one full page", one, 512, true);
      ("a byte over one page", one, 513, false);
      ("negative", one, -1, false);
      ("huge", one, max_int, false);
      ("two pages need more than one", two, 512, false);
      ("two pages, a byte over one", two, 513, true);
      ("two full pages", two, 1024, true);
      ("two pages claimed five thousand bytes", two, 5000, false);
      ("two pages claimed a hundred bytes", two, 100, false);
      ("no pages", Run_table.empty, 0, false);
    ]

let prop_run_table_page_mapping =
  QCheck.Test.make ~name:"run table page/sector mapping is injective" ~count:100
    QCheck.(list_of_size Gen.(1 -- 8) (pair (int_range 0 50) (int_range 1 6)))
    (fun raw ->
      (* Space runs out so they cannot overlap: run i starts at 1000*i+s. *)
      let runs =
        List.mapi
          (fun i (s, l) -> { Run_table.start = (1000 * i) + s; len = l })
          raw
      in
      let t = Run_table.of_runs runs in
      let n = Run_table.pages t in
      let sectors = List.init n (Run_table.sector_of_page t) in
      List.length (List.sort_uniq compare sectors) = n)

(* ------------------------------------------------------------------ *)
(* Fname                                                               *)

let test_fname_key_order () =
  let k1 = Fname.key ~name:"a.txt" ~version:1 in
  let k2 = Fname.key ~name:"a.txt" ~version:2 in
  let k10 = Fname.key ~name:"a.txt" ~version:10 in
  check bool "v1 < v2" true (String.compare k1 k2 < 0);
  check bool "v2 < v10" true (String.compare k2 k10 < 0)

let test_fname_bounds () =
  let lo, hi = Fname.bounds ~name:"foo" in
  let inside = Fname.key ~name:"foo" ~version:999999 in
  let other = Fname.key ~name:"foo.txt" ~version:1 in
  let shorter = Fname.key ~name:"fo" ~version:1 in
  check bool "inside" true (String.compare lo inside <= 0 && String.compare inside hi < 0);
  check bool "longer name outside" false
    (String.compare lo other <= 0 && String.compare other hi < 0);
  check bool "shorter name outside" false
    (String.compare lo shorter <= 0 && String.compare shorter hi < 0)

(* A key starts with the prefix exactly when it lies in
   [prefix, prefix_bound prefix): trailing 0xff bytes are dropped before
   the increment, and a prefix of only 0xff bytes (or none) has no
   bound. *)
let test_fname_prefix_bound () =
  let bound = Alcotest.(option string) in
  check bound "plain" (Some "a0") (Fname.prefix_bound "a/");
  check bound "trailing 0xff dropped" (Some "b") (Fname.prefix_bound "a\xff\xff");
  check bound "inner 0xff kept" (Some "\xffb") (Fname.prefix_bound "\xffa");
  check bound "all 0xff" None (Fname.prefix_bound "\xff\xff");
  check bound "empty" None (Fname.prefix_bound "");
  let in_range prefix key =
    String.compare prefix key <= 0
    &&
    match Fname.prefix_bound prefix with
    | Some b -> String.compare key b < 0
    | None -> true
  in
  List.iter
    (fun (prefix, key) ->
      check bool
        (Printf.sprintf "%S in range of %S" key prefix)
        (String.starts_with ~prefix key) (in_range prefix key))
    [
      ("a/", "a/b!000001");
      ("a/", "a/\xff\xff\xff\xffz!000001");
      ("a/", "a0!000001");
      ("a/", "a.!000001");
      ("a\xff", "a\xff\xff!000001");
      ("a\xff", "b!000001");
      ("\xff", "\xff\xff\xff\xff\xff!000001");
    ]

let test_fname_parse () =
  (match Fname.parse (Fname.key ~name:"x.bcd" ~version:42) with
  | Some ("x.bcd", 42) -> ()
  | _ -> Alcotest.fail "parse roundtrip");
  check bool "garbage" true (Fname.parse "nobang" = None);
  check bool "bad version" true (Fname.parse "a!notanumber" = None)

let test_fname_validate () =
  check bool "ok" true (Fname.validate "Program.mesa" = Ok ());
  check bool "empty" true (Result.is_error (Fname.validate ""));
  check bool "bang" true (Result.is_error (Fname.validate "a!b"));
  check bool "control" true (Result.is_error (Fname.validate "a\nb"));
  check bool "too long" true (Result.is_error (Fname.validate (String.make 101 'x')))

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)

let sample_local =
  Entry.local ~uid:77L ~keep:2 ~byte_size:1234 ~created:999
    ~runs:(rt [ (100, 3) ]) ~anchor:99

let test_entry_roundtrip_local () =
  let e = sample_local in
  check bool "local roundtrip" true (Entry.equal e (Entry.decode (Entry.encode e)))

let test_entry_roundtrip_cached () =
  let e =
    {
      sample_local with
      Entry.kind = Entry.Cached { server = "ivy"; last_used = 123456 };
    }
  in
  check bool "cached roundtrip" true (Entry.equal e (Entry.decode (Entry.encode e)))

(* Garbage, and an entry without a leader sector (stored anchor 0): every
   file has a leader. *)
let test_entry_bad_input () =
  List.iter
    (fun (what, s) ->
      match Entry.decode s with
      | _ -> Alcotest.failf "%s: expected Decode_error" what
      | exception Cedar_util.Bytebuf.Decode_error _ -> ())
    [
      ("garbage", "garbage");
      ("no leader", Entry.encode { sample_local with Entry.anchor = -1 });
    ]

let suite =
  [
    ("run table basics", `Quick, test_run_table_basics);
    ("run table coalesce", `Quick, test_run_table_coalesce);
    ("run table append", `Quick, test_run_table_append);
    ("run table overlap rejected", `Quick, test_run_table_overlap_rejected);
    ("run table codec", `Quick, test_run_table_codec);
    ("run table holds a byte size", `Quick, test_run_table_holds);
    QCheck_alcotest.to_alcotest prop_run_table_page_mapping;
    ("fname key order", `Quick, test_fname_key_order);
    ("fname bounds", `Quick, test_fname_bounds);
    ("fname parse", `Quick, test_fname_parse);
    ("fname prefix bound", `Quick, test_fname_prefix_bound);
    ("fname validate", `Quick, test_fname_validate);
    ("entry roundtrip local", `Quick, test_entry_roundtrip_local);
    ("entry roundtrip cached", `Quick, test_entry_roundtrip_cached);
    ("entry bad input", `Quick, test_entry_bad_input);
  ]
