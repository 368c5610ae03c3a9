(* Property-based tests over the core data structures and codecs, beyond
   the per-module suites: random-value roundtrips, reference-model
   equivalence, and order-preservation laws. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase

(* ------------------------------------------------------------------ *)
(* Bytebuf: a random sequence of typed values roundtrips. *)

type field =
  | F_u8 of int
  | F_u16 of int
  | F_u32 of int
  | F_u64 of int64
  | F_bool of bool
  | F_string of string
  | F_fixed of string

let field_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun n -> F_u8 (n land 0xff)) small_nat;
      map (fun n -> F_u16 (n land 0xffff)) nat;
      map (fun n -> F_u32 (n land 0xffffffff)) nat;
      map (fun n -> F_u64 (Int64.of_int n)) nat;
      map (fun b -> F_bool b) bool;
      map (fun s -> F_string s) (string_size (0 -- 40));
      map
        (fun s -> F_fixed (String.map (fun c -> if c = '\000' then 'x' else c) s))
        (string_size (0 -- 8));
    ]

let write_field w = function
  | F_u8 v -> Bytebuf.Writer.u8 w v
  | F_u16 v -> Bytebuf.Writer.u16 w v
  | F_u32 v -> Bytebuf.Writer.u32 w v
  | F_u64 v -> Bytebuf.Writer.u64 w v
  | F_bool v -> Bytebuf.Writer.bool w v
  | F_string v -> Bytebuf.Writer.string w v
  | F_fixed v -> Bytebuf.Writer.fixed_string w ~width:10 v

(* Reads a field of the given field's type. *)
let read_field r = function
  | F_u8 _ -> F_u8 (Bytebuf.Reader.u8 r)
  | F_u16 _ -> F_u16 (Bytebuf.Reader.u16 r)
  | F_u32 _ -> F_u32 (Bytebuf.Reader.u32 r)
  | F_u64 _ -> F_u64 (Bytebuf.Reader.u64 r)
  | F_bool _ -> F_bool (Bytebuf.Reader.bool r)
  | F_string _ -> F_string (Bytebuf.Reader.string r)
  | F_fixed _ -> F_fixed (Bytebuf.Reader.fixed_string r ~width:10)

let prop_bytebuf_roundtrip =
  QCheck.Test.make ~name:"bytebuf: random field sequences roundtrip" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 30) field_gen))
    (fun fields ->
      let w = Bytebuf.Writer.create () in
      List.iter (write_field w) fields;
      let r = Bytebuf.Reader.of_bytes (Bytebuf.Writer.contents w) in
      List.for_all
        (function
          | F_u8 v -> Bytebuf.Reader.u8 r = v
          | F_u16 v -> Bytebuf.Reader.u16 r = v
          | F_u32 v -> Bytebuf.Reader.u32 r = v
          | F_u64 v -> Bytebuf.Reader.u64 r = v
          | F_bool v -> Bytebuf.Reader.bool r = v
          | F_string v -> Bytebuf.Reader.string r = v
          | F_fixed v -> Bytebuf.Reader.fixed_string r ~width:10 = v)
        fields
      && Bytebuf.Reader.remaining r = 0)

(* ------------------------------------------------------------------ *)
(* Sealed sectors: [Bytebuf.Reader.unseal] is the one rule by which every
   sealed metadata sector — FSD's boot page, leaders and log pages, CFS's
   boot page and headers, the UFS superblock — is judged damaged. *)

let magic_gen = QCheck.Gen.map (fun x -> Int32.to_int x land 0xffffffff) QCheck.Gen.ui32
let fields_gen = QCheck.Gen.list_size (QCheck.Gen.int_range 0 12) field_gen

(* Reads fields of the given fields' types, in order. *)
let read_fields fields r = List.map (read_field r) fields

(* [magic], the fields, the CRC, then [slack] zero bytes; and the
   length of the span the CRC covers. *)
let sealed magic fields ~slack =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic;
  List.iter (write_field w) fields;
  let body_len = Bytes.length (Bytebuf.Writer.contents w) in
  (Bytebuf.Writer.seal w ~size:(body_len + 4 + slack), body_len)

let prop_unseal_roundtrip =
  QCheck.Test.make ~name:"bytebuf: unseal of seal roundtrips" ~count:300
    (QCheck.make QCheck.Gen.(triple magic_gen fields_gen (int_range 0 16)))
    (fun (magic, fields, slack) ->
      let b, _ = sealed magic fields ~slack in
      Bytebuf.Reader.unseal ~magic b (read_fields fields) = Some fields)

let prop_unseal_any_byte_changed =
  QCheck.Test.make ~name:"bytebuf: one changed byte in a sealed span unseals to None"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (triple magic_gen fields_gen (int_range 0 16)) (pair nat (int_range 1 255))))
    (fun ((magic, fields, slack), (at, flip)) ->
      let b, body_len = sealed magic fields ~slack in
      let i = at mod (body_len + 4) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor flip));
      Bytebuf.Reader.unseal ~magic b (read_fields fields) = None)

let prop_unseal_never_raises =
  QCheck.Test.make ~name:"bytebuf: unseal of random bytes never raises" ~count:500
    (QCheck.make QCheck.Gen.(quad magic_gen bool fields_gen (string_size (int_range 0 80))))
    (fun (magic, with_magic, fields, tail) ->
      let b =
        if with_magic then begin
          let w = Bytebuf.Writer.create () in
          Bytebuf.Writer.u32 w magic;
          Bytes.cat (Bytebuf.Writer.contents w) (Bytes.of_string tail)
        end
        else Bytes.of_string tail
      in
      match Bytebuf.Reader.unseal ~magic b (read_fields fields) with
      | Some _ | None -> true)

(* ------------------------------------------------------------------ *)
(* Crc32: the kernel behind [bytes] equals the portable OCaml path on
   random slices, fresh and continuing a random CRC. *)

let prop_crc32_kernel_matches_portable =
  QCheck.Test.make ~name:"crc32: bytes equals the portable path" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         triple (string_size (int_range 0 2100)) (pair nat nat) (int_range 0 0xffffffff)))
    (fun (s, (a, b), crc) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      Crc32.bytes ~pos ~len buf = Crc32.portable ~pos ~len buf
      && Crc32.bytes ~crc ~pos ~len buf = Crc32.portable ~crc ~pos ~len buf)

(* ------------------------------------------------------------------ *)
(* LRU vs a reference model (association list with recency). *)

let prop_lru_vs_reference =
  QCheck.Test.make ~name:"lru: equivalent to a recency-list model" ~count:150
    QCheck.(list (pair (int_bound 20) (option (int_bound 99))))
    (fun ops ->
      let capacity = 4 in
      let cache = Lru.create ~capacity in
      (* model: most-recent-first assoc list, never longer than capacity *)
      let model = ref [] in
      let model_find k =
        match List.assoc_opt k !model with
        | Some v ->
          model := (k, v) :: List.remove_assoc k !model;
          Some v
        | None -> None
      in
      let model_add k v =
        model := (k, v) :: List.remove_assoc k !model;
        if List.length !model > capacity then
          model := List.filteri (fun i _ -> i < capacity) !model
      in
      List.for_all
        (fun (k, op) ->
          match op with
          | Some v ->
            ignore (Lru.add cache k (string_of_int v));
            model_add k (string_of_int v);
            true
          | None ->
            let got = Lru.find cache k and expected = model_find k in
            got = expected)
        ops
      && List.for_all (fun (k, v) -> Lru.peek cache k = Some v) !model
      && Lru.size cache = List.length !model)

(* ------------------------------------------------------------------ *)
(* Fname: key order equals (name, version) order. *)

let name_gen =
  QCheck.Gen.(
    map
      (fun (a, b) -> Printf.sprintf "%c%s" (char_range 'a' 'z' |> generate1) (string_of_int (a mod 50) ^ b))
      (pair nat (oneofl [ ""; ".mesa"; ".bcd"; "/sub" ])))

let prop_fname_order =
  QCheck.Test.make ~name:"fname: key order = (name, version) order" ~count:300
    QCheck.(
      pair
        (pair (make name_gen) (int_range 1 999_999))
        (pair (make name_gen) (int_range 1 999_999)))
    (fun (((n1, v1)), ((n2, v2))) ->
      QCheck.assume (Fname.validate n1 = Ok () && Fname.validate n2 = Ok ());
      let k1 = Fname.key ~name:n1 ~version:v1 in
      let k2 = Fname.key ~name:n2 ~version:v2 in
      let expected = compare (n1, v1) (n2, v2) in
      compare (String.compare k1 k2) 0 = compare expected 0)

let prop_fname_bounds_bracket =
  QCheck.Test.make ~name:"fname: bounds bracket exactly the name's versions" ~count:300
    QCheck.(pair (make name_gen) (pair (make name_gen) (int_range 1 999_999)))
    (fun (bound_name, (key_name, v)) ->
      QCheck.assume (Fname.validate bound_name = Ok () && Fname.validate key_name = Ok ());
      let lo, hi = Fname.bounds ~name:bound_name in
      let k = Fname.key ~name:key_name ~version:v in
      let inside = String.compare lo k <= 0 && String.compare k hi < 0 in
      inside = String.equal bound_name key_name)

(* ------------------------------------------------------------------ *)
(* Entry and Header codecs under random contents. *)

let runs_gen =
  QCheck.Gen.(
    map
      (fun pieces ->
        let _, runs =
          List.fold_left
            (fun (base, acc) (gap, len) ->
              let start = base + gap in
              (start + len, { Run_table.start; len } :: acc))
            (10, [])
            pieces
        in
        Run_table.of_runs (List.rev runs))
      (list_size (0 -- 6) (pair (int_range 1 50) (int_range 1 30))))

let entry_gen =
  QCheck.Gen.(
    map
      (fun ((uid, keep, size), (runs, kind_pick, server)) ->
        let kind =
          match kind_pick with
          | 0 -> Entry.Local
          | 1 -> Entry.Symlink { target = server }
          | _ -> Entry.Cached { server; last_used = size * 3 }
        in
        {
          Entry.uid = Int64.of_int uid;
          keep = keep mod 10;
          byte_size = size;
          created = size * 7;
          runs;
          anchor = (if kind_pick = 1 then -1 else 9 + uid mod 1000);
          kind;
        })
      (pair (triple nat nat nat) (triple runs_gen (int_bound 2) (string_size (1 -- 12)))))

let prop_entry_roundtrip =
  QCheck.Test.make ~name:"entry: random entries roundtrip" ~count:300
    (QCheck.make entry_gen)
    (fun e -> Entry.equal e (Entry.decode (Entry.encode e)))

let prop_entry_decode_never_crashes =
  QCheck.Test.make ~name:"entry: random bytes decode or raise cleanly" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun s ->
      match Entry.decode s with
      | _ -> true
      | exception Bytebuf.Decode_error _ -> true
      | exception Invalid_argument _ -> true)

let prop_leader_matches_entry =
  QCheck.Test.make ~name:"leader: of_entry always matches its entry" ~count:200
    (QCheck.make entry_gen)
    (fun e ->
      let open Cedar_fsd in
      let l = Leader.of_entry ~name:"prop/file" ~version:7 e in
      let b = Leader.encode l ~sector_bytes:512 in
      match Leader.decode b with
      | Some l' -> Leader.matches l' ~name:"prop/file" ~version:7 e
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Device: dump/load preserves everything observable. *)

let prop_device_dump_load =
  QCheck.Test.make ~name:"device: dump/load roundtrips content, labels, damage"
    ~count:40
    QCheck.(list (triple (int_bound 767) (int_bound 2) small_nat))
    (fun ops ->
      let geom = Geometry.tiny_test in
      let d = Device.create ~clock:(Simclock.create ()) geom in
      let sb = geom.Geometry.sector_bytes in
      List.iter
        (fun (sector, op, seed) ->
          match op with
          | 0 -> Device.write d sector (Bytes.make sb (Char.chr (seed mod 256)))
          | 1 ->
            Device.write_labels d ~sector
              [ { Label.uid = Int64.of_int seed; page = seed mod 7; kind = Label.Data } ]
          | _ -> Device.damage d sector)
        ops;
      let file = Filename.temp_file "cedarprop" ".img" in
      let oc = open_out_bin file in
      Device.dump d oc;
      close_out oc;
      let ic = open_in_bin file in
      let d' = Device.load ~clock:(Simclock.create ()) ic in
      close_in ic;
      Sys.remove file;
      List.for_all
        (fun (sector, _, _) ->
          Device.is_damaged d sector = Device.is_damaged d' sector
          && (Device.is_damaged d sector
             || (Bytes.equal (Device.read d sector) (Device.read d' sector)
                && Label.equal (Device.read_label d sector) (Device.read_label d' sector))))
        ops)

(* ------------------------------------------------------------------ *)
(* Log: random batches of records, then random 1-2 sector damage, still
   recover every record with the right final images. *)

let prop_log_random_batches_with_damage =
  QCheck.Test.make ~name:"log: random batches survive random 1-2 sector damage"
    ~count:40
    QCheck.(triple (int_bound 10_000) (int_range 1 12) (int_bound 3))
    (fun (seed, nrecords, damage_count) ->
      let open Cedar_fsd in
      let geom = Geometry.small_test in
      let layout = Layout.compute geom (Params.for_geometry geom) in
      let device = Device.create ~clock:(Simclock.create ()) geom in
      Log.format device layout;
      let log =
        Log.attach device layout ~boot_count:1 ~next_record_no:1_000_000L ~write_off:0
          ~on_enter_third:(fun _ -> ())
      in
      let rng = Rng.create (seed + 7) in
      let expected : (Log.unit_kind, char) Hashtbl.t = Hashtbl.create 16 in
      let first_off = ref None in
      let last_end = ref 0 in
      for _ = 1 to nrecords do
        let nunits = 1 + Rng.int rng 3 in
        let units =
          List.init nunits (fun _ ->
              let fill = Char.chr (97 + Rng.int rng 26) in
              let kind, sectors =
                if Rng.bool rng then (Log.Fnt_page (Rng.int rng 20), layout.Layout.params.Params.fnt_page_sectors)
                else (Log.Leader_page (5000 + Rng.int rng 50), 1)
              in
              Hashtbl.replace expected kind fill;
              { Log.kind; image = Bytes.make (sectors * 512) fill })
        in
        let size = Log.record_total_sectors layout units in
        (match !first_off with None -> first_off := Some 0 | Some _ -> ());
        ignore (Log.append log units : int);
        last_end := !last_end + size
      done;
      (* random damage inside the written region, 1-2 consecutive *)
      let body = layout.Layout.log_start + 3 in
      for _ = 1 to damage_count do
        let pos = Rng.int rng (max 1 !last_end) in
        Device.damage device (body + pos);
        if Rng.bool rng && pos + 1 < !last_end then Device.damage device (body + pos + 1)
      done;
      (* NOTE: the failure model is one fault at a time; with several
         random faults two copies of the same sector can die, so only
         require: every record recovered when damage is light. *)
      let r = Log.recover device layout in
      if damage_count <= 1 then
        r.Log.replayed_records = nrecords
        && Hashtbl.fold
             (fun kind fill acc ->
               acc
               && List.exists
                    (fun (k, img, _) -> k = kind && Bytes.get img 0 = fill)
                    r.Log.images)
             expected true
      else r.Log.replayed_records <= nrecords)

(* ------------------------------------------------------------------ *)
(* Bitmap kernel laws, against the bit-by-bit reference below. *)

(* The reference takes one bit per step through [get] and [assign]. *)
module Bit_steps = struct
  let in_map b ~pos ~len = pos >= 0 && len >= 0 && pos + len <= Bitmap.length b

  let count b =
    let n = ref 0 in
    for i = 0 to Bitmap.length b - 1 do
      if Bitmap.get b i then incr n
    done;
    !n

  let uniform b ~pos ~len v =
    pos >= 0
    && pos + len <= Bitmap.length b
    && List.for_all (fun k -> Bitmap.get b (pos + k) = v) (List.init (max len 0) Fun.id)

  let assign_run b ~pos ~len v =
    for i = pos to pos + len - 1 do
      Bitmap.assign b i v
    done

  (* The lowest [pos >= from] with [pos + len <= min upto length] whose
     run is all set. *)
  let find_up b ~from ~upto ~len =
    let upto = min upto (Bitmap.length b) in
    let rec go pos =
      if pos + len > upto then None
      else if uniform b ~pos ~len true then Some pos
      else go (pos + 1)
    in
    if from < 0 then None else go from

  (* The highest [pos >= max downto_ 0] with [pos + len <= from + 1],
     [from] capped at the last bit, whose run is all set. *)
  let find_down b ~from ~downto_ ~len =
    let top = min from (Bitmap.length b - 1) in
    let rec go pos =
      if pos < max downto_ 0 then None
      else if uniform b ~pos ~len true then Some pos
      else go (pos - 1)
    in
    go (top - len + 1)
end

(* Maps of 0 to 760 bits built a 64-bit word at a time: all-zero words,
   all-one words and words of 0x00, 0xff and random bytes, so runs start,
   stop and complete at byte and word edges, where the kernel steps a
   whole byte or word at once. The length is rarely a multiple of 8;
   [pos], [lo] and [hi] fall mid-byte and past either end; [len] runs
   from 1 to 200, so runs cross several words. *)
type run_case = { bits : int; bytes : string; pos : int; len : int; lo : int; hi : int }

let run_case_gen =
  let open QCheck.Gen in
  let* bits = frequency [ (1, int_range 0 16); (6, int_range 17 760) ] in
  let byte = frequency [ (2, return 0); (3, return 0xff); (2, int_bound 255) ] in
  let word =
    frequency
      [ (2, return (List.init 8 (fun _ -> 0))); (3, return (List.init 8 (fun _ -> 0xff)));
        (3, list_repeat 8 byte) ]
  in
  let* words = list_repeat ((bits + 63) / 64) word in
  let* len = frequency [ (3, int_range 1 12); (3, int_range 13 70); (2, int_range 71 200) ] in
  let* pos = int_range (-8) (bits + 8) in
  let* lo = int_range (-8) (bits + 8) in
  let+ hi = int_range (-8) (bits + 72) in
  let bytes = List.filteri (fun i _ -> i < (bits + 7) / 8) (List.concat words) in
  { bits; bytes = String.of_seq (List.to_seq (List.map Char.chr bytes)); pos; len; lo; hi }

let run_case =
  QCheck.make run_case_gen ~print:(fun c ->
      Printf.sprintf "bits=%d pos=%d len=%d lo=%d hi=%d map=%s" c.bits c.pos c.len c.lo c.hi
        (String.concat " "
           (List.map (fun ch -> Printf.sprintf "%02x" (Char.code ch))
              (List.of_seq (String.to_seq c.bytes)))))

let bitmap_of c = Bitmap.of_bytes ~bits:c.bits (Bytes.of_string c.bytes)

let prop_bitmap_find_run_correct =
  QCheck.Test.make ~name:"bitmap: find_run_set returns the lowest valid window"
    ~count:1000 run_case (fun c ->
      let b = bitmap_of c in
      Bitmap.find_run_set b ~from:c.lo ~upto:c.hi ~len:c.len
      = Bit_steps.find_up b ~from:c.lo ~upto:c.hi ~len:c.len)

let prop_bitmap_find_run_down_correct =
  QCheck.Test.make ~name:"bitmap: find_run_set_down returns the highest valid window"
    ~count:1000 run_case (fun c ->
      let b = bitmap_of c in
      Bitmap.find_run_set_down b ~from:c.hi ~downto_:c.lo ~len:c.len
      = Bit_steps.find_down b ~from:c.hi ~downto_:c.lo ~len:c.len)

(* A run inside the map changes exactly its bits; one that leaves it
   raises and changes nothing. [len] may be 0 here. *)
let prop_bitmap_assign_run =
  QCheck.Test.make ~name:"bitmap: set_run and clear_run match bit steps" ~count:1000
    QCheck.(pair run_case bool)
    (fun (c, v) ->
      let len = c.len - 1 in
      let b = bitmap_of c and reference = bitmap_of c in
      let run = if v then Bitmap.set_run else Bitmap.clear_run in
      let raised =
        match run b ~pos:c.pos ~len with () -> false | exception Invalid_argument _ -> true
      in
      let in_map = Bit_steps.in_map reference ~pos:c.pos ~len in
      if in_map then Bit_steps.assign_run reference ~pos:c.pos ~len v;
      raised = (not in_map) && Bitmap.equal b reference
      && Bitmap.count b = Bit_steps.count reference)

let prop_bitmap_count_and_uniform_runs =
  QCheck.Test.make
    ~name:"bitmap: count, all_set_in_run and all_clear_in_run match bit steps" ~count:1000
    run_case (fun c ->
      let b = bitmap_of c in
      let len = c.len - 1 in
      Bitmap.count b = Bit_steps.count b
      && Bitmap.all_set_in_run b ~pos:c.pos ~len = Bit_steps.uniform b ~pos:c.pos ~len true
      && Bitmap.all_clear_in_run b ~pos:c.pos ~len = Bit_steps.uniform b ~pos:c.pos ~len false)

(* Every byte value between all-zero and all-one neighbours, for every
   run length that can end in, start in or cross it: the searches read
   each entry of their byte tables here, which random maps need not. *)
let test_bitmap_every_byte () =
  List.iter
    (fun (left, right) ->
      for v = 0 to 255 do
        let bytes = Bytes.init 3 (fun i -> Char.chr [| left; v; right |].(i)) in
        let b = Bitmap.of_bytes ~bits:24 bytes in
        for len = 1 to 17 do
          let up = Bitmap.find_run_set b ~from:0 ~upto:24 ~len
          and down = Bitmap.find_run_set_down b ~from:23 ~downto_:0 ~len in
          if up <> Bit_steps.find_up b ~from:0 ~upto:24 ~len
             || down <> Bit_steps.find_down b ~from:23 ~downto_:0 ~len
          then Alcotest.failf "byte %02x between %02x and %02x, len %d" v left right len
        done
      done)
    [ (0, 0); (0xff, 0); (0, 0xff); (0xff, 0xff) ]

(* ------------------------------------------------------------------ *)
(* Geometry: chs mapping is a bijection for random geometries. *)

let prop_geometry_chs_bijection =
  QCheck.Test.make ~name:"geometry: sector<->chs bijection" ~count:60
    QCheck.(triple (int_range 2 30) (int_range 1 8) (int_range 4 40))
    (fun (cylinders, heads, sectors_per_track) ->
      let g =
        {
          Geometry.cylinders;
          heads;
          sectors_per_track;
          sector_bytes = 512;
          rpm = 3600;
          min_seek_us = 1000;
          avg_seek_us = 5000;
          max_seek_us = 9000;
          head_switch_us = 100;
        }
      in
      let total = Geometry.total_sectors g in
      let ok = ref true in
      for s = 0 to total - 1 do
        if Geometry.of_chs g (Geometry.to_chs g s) <> s then ok := false
      done;
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bytebuf_roundtrip;
      prop_unseal_roundtrip;
      prop_unseal_any_byte_changed;
      prop_unseal_never_raises;
      prop_crc32_kernel_matches_portable;
      prop_lru_vs_reference;
      prop_fname_order;
      prop_fname_bounds_bracket;
      prop_entry_roundtrip;
      prop_entry_decode_never_crashes;
      prop_leader_matches_entry;
      prop_device_dump_load;
      prop_log_random_batches_with_damage;
      prop_bitmap_find_run_correct;
      prop_bitmap_find_run_down_correct;
      prop_bitmap_assign_run;
      prop_bitmap_count_and_uniform_runs;
      prop_geometry_chs_bijection;
    ]
  @ [ ("bitmap: every byte value matches bit steps", `Quick, test_bitmap_every_byte) ]
