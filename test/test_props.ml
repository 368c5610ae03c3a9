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

let prop_bytebuf_roundtrip =
  QCheck.Test.make ~name:"bytebuf: random field sequences roundtrip" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 30) field_gen))
    (fun fields ->
      let w = Bytebuf.Writer.create () in
      List.iter
        (function
          | F_u8 v -> Bytebuf.Writer.u8 w v
          | F_u16 v -> Bytebuf.Writer.u16 w v
          | F_u32 v -> Bytebuf.Writer.u32 w v
          | F_u64 v -> Bytebuf.Writer.u64 w v
          | F_bool v -> Bytebuf.Writer.bool w v
          | F_string v -> Bytebuf.Writer.string w v
          | F_fixed v -> Bytebuf.Writer.fixed_string w ~width:10 v)
        fields;
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
              Log.hashed_unit layout kind (Bytes.make (sectors * 512) fill))
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
(* Bitmap run-search laws. *)

let prop_bitmap_find_run_correct =
  QCheck.Test.make ~name:"bitmap: find_run_set returns the lowest valid window"
    ~count:200
    QCheck.(pair (list (int_bound 99)) (int_range 1 6))
    (fun (set_bits, len) ->
      let b = Bitmap.create 100 in
      List.iter (Bitmap.set b) set_bits;
      let reference =
        let rec go pos =
          if pos + len > 100 then None
          else if Bitmap.all_set_in_run b ~pos ~len then Some pos
          else go (pos + 1)
        in
        go 0
      in
      Bitmap.find_run_set b ~from:0 ~upto:100 ~len = reference)

let prop_bitmap_find_run_down_correct =
  QCheck.Test.make ~name:"bitmap: find_run_set_down returns the highest valid window"
    ~count:200
    QCheck.(pair (list (int_bound 99)) (int_range 1 6))
    (fun (set_bits, len) ->
      let b = Bitmap.create 100 in
      List.iter (Bitmap.set b) set_bits;
      let reference =
        let rec go pos =
          if pos < 0 then None
          else if Bitmap.all_set_in_run b ~pos ~len then Some pos
          else go (pos - 1)
        in
        go (100 - len)
      in
      Bitmap.find_run_set_down b ~from:99 ~downto_:0 ~len = reference)

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
      prop_geometry_chs_bijection;
    ]
