open Cedar_util

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Bytebuf                                                             *)

let test_bytebuf_roundtrip () =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u8 w 0xab;
  Bytebuf.Writer.u16 w 0xbeef;
  Bytebuf.Writer.u32 w 0xdeadbeef;
  Bytebuf.Writer.u64 w 0x1122334455667788L;
  Bytebuf.Writer.i64 w (-42);
  Bytebuf.Writer.bool w true;
  Bytebuf.Writer.string w "hello";
  Bytebuf.Writer.bytes w (Bytes.of_string "\x00\x01\x02");
  Bytebuf.Writer.fixed_string w ~width:8 "abc";
  Bytebuf.Writer.list w Bytebuf.Writer.u16 [ 1; 2; 3 ];
  let r = Bytebuf.Reader.of_bytes (Bytebuf.Writer.contents w) in
  check int "u8" 0xab (Bytebuf.Reader.u8 r);
  check int "u16" 0xbeef (Bytebuf.Reader.u16 r);
  check int "u32" 0xdeadbeef (Bytebuf.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Bytebuf.Reader.u64 r);
  check int "i64" (-42) (Bytebuf.Reader.i64 r);
  check bool "bool" true (Bytebuf.Reader.bool r);
  check Alcotest.string "string" "hello" (Bytebuf.Reader.string r);
  check Alcotest.string "bytes" "\x00\x01\x02"
    (Bytes.to_string (Bytebuf.Reader.bytes r));
  check Alcotest.string "fixed" "abc" (Bytebuf.Reader.fixed_string r ~width:8);
  check (Alcotest.list int) "list" [ 1; 2; 3 ]
    (Bytebuf.Reader.list r Bytebuf.Reader.u16);
  check int "consumed all" 0 (Bytebuf.Reader.remaining r)

let test_bytebuf_truncated () =
  let r = Bytebuf.Reader.of_bytes (Bytes.of_string "\x01") in
  Alcotest.check_raises "u32 on 1 byte"
    (Bytebuf.Decode_error "truncated input (need 4 at 0, limit 1)") (fun () ->
      ignore (Bytebuf.Reader.u32 r))

let test_bytebuf_sector_pad () =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w 7;
  let s = Bytebuf.Writer.to_sector w ~size:512 in
  check int "padded" 512 (Bytes.length s);
  check int "tail zero" 0 (Char.code (Bytes.get s 511));
  (* [seal] is the contents, their CRC-32 as a u32, then the pad. *)
  let sealed = Bytebuf.Writer.seal w ~size:512 in
  check int "sealed padded" 512 (Bytes.length sealed);
  check bool "sealed contents" true (Bytes.sub sealed 0 4 = Bytes.sub s 0 4);
  check int "sealed crc" (Crc32.bytes ~len:4 s)
    (Int32.to_int (Bytes.get_int32_le sealed 4) land 0xffffffff);
  check bool "sealed tail zero" true (Bytes.sub sealed 8 504 = Bytes.make 504 '\000')

let test_bytebuf_bad_bool () =
  let r = Bytebuf.Reader.of_bytes (Bytes.of_string "\x07") in
  Alcotest.check_raises "bad bool" (Bytebuf.Decode_error "invalid boolean byte 7")
    (fun () -> ignore (Bytebuf.Reader.bool r))

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)

let test_crc32_known () =
  (* Standard test vector: CRC-32("123456789") = 0xcbf43926. *)
  check int "vector" 0xcbf43926 (Crc32.string "123456789");
  check int "empty" 0 (Crc32.string "")

let test_crc32_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  check int "slice" 0xcbf43926 (Crc32.bytes ~pos:2 ~len:9 b)

(* The classic one-byte-per-step CRC-32, kept as the reference both
   paths — the kernel behind [Crc32.bytes] and the OCaml
   [Crc32.portable] — must match bit for bit. *)
let crc32_reference =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  fun b ~pos ~len ->
    let c = ref 0xffffffff in
    for i = pos to pos + len - 1 do
      c := table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
    done;
    !c lxor 0xffffffff

let test_crc32_matches_reference () =
  let rng = Rng.create 1987 in
  let buf = Bytes.init 2200 (fun _ -> Char.chr (Rng.int rng 256)) in
  let paths =
    [
      ("bytes", fun ~crc ~pos ~len -> Crc32.bytes ~crc ~pos ~len buf);
      ("portable", fun ~crc ~pos ~len -> Crc32.portable ~crc ~pos ~len buf);
    ]
  in
  (* The slice [pos, pos + len), continuing the CRC of the [prefix]
     bytes before it (none: a fresh CRC). *)
  let same ~prefix ~pos ~len =
    let crc = crc32_reference buf ~pos:(pos - prefix) ~len:prefix in
    let want = crc32_reference buf ~pos:(pos - prefix) ~len:(prefix + len) in
    List.iter
      (fun (path, crc32) ->
        let got = crc32 ~crc ~pos ~len in
        if got <> want then
          Alcotest.failf "%s: pos %d len %d after %d bytes: got %08x, reference %08x" path pos
            len prefix got want)
      paths
  in
  (* Every length up to 300 at every offset in a 16-byte block: inputs
     too short for the kernel's 64-byte loop, one to four turns of it,
     every count of 16-byte folds after it and every byte tail, and
     every remainder of the portable path's eight-byte loads. Then the
     sizes the file system checksums: a page's head before its trailer,
     a sector less a seal, a sector, a page payload and a page. Each is
     also checked as a continuation of the CRC of the bytes before it. *)
  for pos = 0 to 15 do
    List.iter
      (fun len ->
        same ~prefix:0 ~pos ~len;
        same ~prefix:pos ~pos ~len)
      (List.init 301 Fun.id @ [ 496; 508; 512; 2032; 2048 ])
  done;
  for _ = 1 to 10_000 do
    let len = Rng.int rng 2101 in
    let pos = Rng.int rng (Bytes.length buf - len + 1) in
    same ~prefix:(Rng.int rng (pos + 1)) ~pos ~len
  done;
  let v = Bytes.of_string "123456789" in
  check int "vector" (crc32_reference v ~pos:0 ~len:9) (Crc32.bytes v);
  check int "portable vector" (crc32_reference v ~pos:0 ~len:9) (Crc32.portable v)

(* ------------------------------------------------------------------ *)
(* Bitmap                                                              *)

let test_bitmap_basic () =
  let b = Bitmap.create 100 in
  check int "empty count" 0 (Bitmap.count b);
  Bitmap.set b 0;
  Bitmap.set b 63;
  Bitmap.set b 99;
  check bool "get 0" true (Bitmap.get b 0);
  check bool "get 1" false (Bitmap.get b 1);
  check int "count" 3 (Bitmap.count b);
  Bitmap.clear b 63;
  check bool "cleared" false (Bitmap.get b 63);
  check int "count after clear" 2 (Bitmap.count b)

let test_bitmap_runs () =
  let b = Bitmap.create 64 in
  Bitmap.set_run b ~pos:10 ~len:20;
  check bool "run set" true (Bitmap.all_set_in_run b ~pos:10 ~len:20);
  check bool "beyond run" false (Bitmap.all_set_in_run b ~pos:10 ~len:21);
  check (Alcotest.option int) "find up" (Some 10)
    (Bitmap.find_run_set b ~from:0 ~upto:64 ~len:5);
  check (Alcotest.option int) "find exact" (Some 10)
    (Bitmap.find_run_set b ~from:0 ~upto:64 ~len:20);
  check (Alcotest.option int) "find too long" None
    (Bitmap.find_run_set b ~from:0 ~upto:64 ~len:21);
  check (Alcotest.option int) "find down" (Some 25)
    (Bitmap.find_run_set_down b ~from:63 ~downto_:0 ~len:5);
  Bitmap.clear_run b ~pos:10 ~len:20;
  check int "cleared all" 0 (Bitmap.count b)

let test_bitmap_bytes_roundtrip () =
  let b = Bitmap.create 37 in
  Bitmap.set b 0;
  Bitmap.set b 36;
  Bitmap.set b 17;
  let b' = Bitmap.of_bytes ~bits:37 (Bitmap.to_bytes b) in
  check bool "equal" true (Bitmap.equal b b')

(* Single-bit and run operations against a Hashtbl reference on a map
   whose length is not a multiple of 8, with runs at unaligned positions
   and some that leave the map: those must raise and change nothing. *)
let prop_bitmap_vs_reference =
  let bits = 203 in
  QCheck.Test.make ~name:"bitmap matches reference set semantics" ~count:200
    QCheck.(list (quad (int_bound 2) (int_range (-4) (bits + 4)) (int_bound 40) bool))
    (fun ops ->
      let bm = Bitmap.create bits in
      let reference = Hashtbl.create 16 in
      let mem i = Hashtbl.mem reference i in
      let update ~pos ~len v =
        for i = pos to pos + len - 1 do
          if v then Hashtbl.replace reference i () else Hashtbl.remove reference i
        done
      in
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      List.for_all
        (fun (kind, pos, len, v) ->
          let in_map = pos >= 0 && pos + len <= bits in
          match kind with
          | 0 ->
            let ok = pos >= 0 && pos < bits in
            let raised = raises (fun () -> Bitmap.assign bm pos v) in
            if ok then update ~pos ~len:1 v;
            raised = not ok
          | 1 ->
            let run = if v then Bitmap.set_run else Bitmap.clear_run in
            let raised = raises (fun () -> run bm ~pos ~len) in
            if in_map then update ~pos ~len v;
            raised = not in_map
          | _ ->
            let all_set = List.for_all mem (List.init len (fun k -> pos + k)) in
            Bitmap.all_set_in_run bm ~pos ~len = (in_map && all_set))
        ops
      && Hashtbl.length reference = Bitmap.count bm
      && List.for_all (fun i -> Bitmap.get bm i = mem i) (List.init bits Fun.id))

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 2 "b");
  ignore (Lru.find c 1); (* promote 1; 2 is now LRU *)
  let evicted = Lru.add c 3 "c" in
  check (Alcotest.list (Alcotest.pair int Alcotest.string)) "evicted LRU"
    [ (2, "b") ] evicted;
  check bool "1 kept" true (Lru.mem c 1);
  check bool "3 kept" true (Lru.mem c 3)

let test_lru_pinned_never_evicted () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  Lru.pin c 1;
  ignore (Lru.add c 2 "b");
  ignore (Lru.add c 3 "c");
  ignore (Lru.add c 4 "d");
  check bool "pinned survives" true (Lru.mem c 1);
  Lru.unpin c 1;
  ignore (Lru.add c 5 "e");
  check int "capacity respected after unpin" 2 (Lru.size c)

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 1 "a2");
  check (Alcotest.option Alcotest.string) "replaced" (Some "a2") (Lru.find c 1);
  check int "size 1" 1 (Lru.size c)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r ~lo:5 ~hi:10 in
    check bool "in range" true (v >= 5 && v <= 10)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1_000_000) in
  check bool "streams differ" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Simclock, Stats                                                     *)

let test_simclock () =
  let c = Simclock.create () in
  check int "starts at 0" 0 (Simclock.now c);
  Simclock.advance c 500;
  check int "advanced" 500 (Simclock.now c);
  Simclock.advance_to c 400;
  check int "no going back" 500 (Simclock.now c);
  Simclock.advance_to c 600;
  check int "forward" 600 (Simclock.now c)

let test_stats () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check int "n" 4 (Stats.n s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-9) "p50" 2.0 (Stats.percentile s 0.5);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile s 1.0)

let test_percentile_edges () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.0; 1.0; 3.0 ];
  check (Alcotest.float 1e-9) "p0 is the minimum" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "below 0 clamps to min" 1.0 (Stats.percentile s (-0.7));
  check (Alcotest.float 1e-9) "above 1 clamps to max" 5.0 (Stats.percentile s 2.5);
  check bool "empty series still raises" true
    (match Stats.percentile (Stats.create ()) 0.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Every sample is kept, in order, as the store grows: against a list
   model, [recent] is newest first and the percentiles are those of the
   sorted samples, also when queries (which cache the sorted samples)
   come between additions. *)
let test_stats_matches_list_model () =
  let s = Stats.create () in
  let model = ref [] in
  let rng = Rng.create 7 in
  for i = 1 to 1000 do
    let v = float_of_int (Rng.int rng 50) in
    Stats.add s v;
    model := v :: !model;
    if i mod 97 = 0 || i = 1000 then begin
      let sorted = Array.of_list (List.sort compare !model) in
      List.iter
        (fun p ->
          let want = sorted.(max 0 (int_of_float (ceil (p *. float_of_int i)) - 1)) in
          check (Alcotest.float 0.) (Printf.sprintf "p%g after %d" p i) want
            (Stats.percentile s p))
        [ 0.0; 0.25; 0.5; 0.99; 1.0 ];
      List.iter
        (fun k ->
          check (Alcotest.list (Alcotest.float 0.)) (Printf.sprintf "recent %d after %d" k i)
            (List.filteri (fun j _ -> j < k) !model)
            (Stats.recent s k))
        [ 0; 1; 17; i; i + 5 ]
    end
  done;
  check int "n" 1000 (Stats.n s);
  check (Alcotest.float 0.) "total" (List.fold_left ( +. ) 0. (List.rev !model)) (Stats.total s)

(* Law: every percentile equals the nearest-rank pick from the samples
   sorted as a list with polymorphic [compare]. The samples mix
   arbitrary floats, many ties, both zeros and the non-finite values. *)
let prop_percentiles_vs_sorted_list =
  let sample =
    QCheck.oneof
      [
        QCheck.float;
        QCheck.map float_of_int (QCheck.int_range (-3) 3);
        QCheck.oneofl [ nan; infinity; neg_infinity; -0.0; 0.0 ];
      ]
  in
  QCheck.Test.make ~name:"stats percentiles match a sorted-list reference" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 200) sample) (list (float_bound_inclusive 1.0)))
    (fun (values, ps) ->
      let s = Stats.create () in
      List.iter (Stats.add s) values;
      let sorted = Array.of_list (List.sort compare values) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let want = sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))) in
          Float.equal want (Stats.percentile s p))
        (0.0 :: 1.0 :: ps))

let suite =
  [
    ("bytebuf roundtrip", `Quick, test_bytebuf_roundtrip);
    ("bytebuf truncated", `Quick, test_bytebuf_truncated);
    ("bytebuf sector pad", `Quick, test_bytebuf_sector_pad);
    ("bytebuf bad bool", `Quick, test_bytebuf_bad_bool);
    ("crc32 known vector", `Quick, test_crc32_known);
    ("crc32 slice", `Quick, test_crc32_slice);
    ("crc32 matches byte-at-a-time reference", `Quick, test_crc32_matches_reference);
    ("bitmap basic", `Quick, test_bitmap_basic);
    ("bitmap runs", `Quick, test_bitmap_runs);
    ("bitmap bytes roundtrip", `Quick, test_bitmap_bytes_roundtrip);
    QCheck_alcotest.to_alcotest prop_bitmap_vs_reference;
    ("lru eviction order", `Quick, test_lru_eviction_order);
    ("lru pinned never evicted", `Quick, test_lru_pinned_never_evicted);
    ("lru replace", `Quick, test_lru_replace);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("simclock", `Quick, test_simclock);
    ("stats", `Quick, test_stats);
    ("stats matches a list model", `Quick, test_stats_matches_list_model);
    ("percentile edges", `Quick, test_percentile_edges);
    QCheck_alcotest.to_alcotest prop_percentiles_vs_sorted_list;
  ]
