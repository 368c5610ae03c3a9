open Cedar_btree

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* In-memory page store used to exercise the B-tree in isolation. By
   default it copies on read and on write, so the tree decodes every
   node it reads; with [~copying:false] it hands its bytes out, as the
   name-table cache does, and unchanged pages hit the tree's node memo.
   [written] records every page write, newest first; [reads] counts
   page reads. *)
module Mem_store = struct
  type t = {
    page_bytes : int;
    copying : bool;
    pages : (int, bytes) Hashtbl.t;
    mutable next : int;
    mutable root : int option;
    mutable writes : int;
    mutable written : (int * string) list;
    mutable reads : int;
    free_list : (int, unit) Hashtbl.t;
  }

  let make ?(page_bytes = 512) ?(copying = true) () =
    {
      page_bytes;
      copying;
      pages = Hashtbl.create 64;
      next = 0;
      root = None;
      writes = 0;
      written = [];
      reads = 0;
      free_list = Hashtbl.create 8;
    }

  let page_bytes t = t.page_bytes

  let read t id =
    t.reads <- t.reads + 1;
    match Hashtbl.find_opt t.pages id with
    | Some b -> if t.copying then Bytes.copy b else b
    | None -> failwith (Printf.sprintf "read of unallocated page %d" id)

  let write t id b =
    t.writes <- t.writes + 1;
    t.written <- (id, Bytes.to_string b) :: t.written;
    Hashtbl.replace t.pages id (if t.copying then Bytes.copy b else b)

  let alloc t =
    let id = t.next in
    t.next <- id + 1;
    id

  let free t id =
    if Hashtbl.mem t.free_list id then failwith "double free";
    Hashtbl.replace t.free_list id ();
    Hashtbl.remove t.pages id

  let get_root t = t.root
  let set_root t r = t.root <- r
  let live_pages t = Hashtbl.length t.pages
end

module T = Btree.Make (Mem_store)

let expect_ok t =
  match T.check t with Ok () -> () | Error m -> Alcotest.fail ("invariant: " ^ m)

let key_of i = Printf.sprintf "key-%06d" i
let value_of i = Printf.sprintf "value-%d-%s" i (String.make (i mod 40) 'v')

let build _n order =
  let s = Mem_store.make () in
  let t = T.attach s in
  List.iter (fun i -> T.insert t ~key:(key_of i) ~value:(value_of i)) order;
  (s, t)

let test_empty () =
  let s = Mem_store.make () in
  let t = T.attach s in
  check bool "empty" true (T.is_empty t);
  check (Alcotest.option Alcotest.string) "find" None (T.find t "x");
  check bool "delete absent" false (T.delete t "x");
  expect_ok t

let test_single () =
  let s = Mem_store.make () in
  let t = T.attach s in
  T.insert t ~key:"a" ~value:"1";
  check (Alcotest.option Alcotest.string) "found" (Some "1") (T.find t "a");
  check bool "not empty" false (T.is_empty t);
  T.insert t ~key:"a" ~value:"2";
  check (Alcotest.option Alcotest.string) "replaced" (Some "2") (T.find t "a");
  check int "one entry" 1 (T.stats t).entries;
  expect_ok t

let test_many_sequential () =
  let n = 2000 in
  let _, t = build n (List.init n (fun i -> i)) in
  expect_ok t;
  check int "entries" n (T.stats t).entries;
  check bool "deep enough to have split" true ((T.stats t).depth >= 2);
  for i = 0 to n - 1 do
    match T.find t (key_of i) with
    | Some v -> check Alcotest.string "value" (value_of i) v
    | None -> Alcotest.fail (key_of i ^ " lost")
  done

let test_many_reverse_and_shuffled () =
  let n = 1500 in
  let rev = List.init n (fun i -> n - 1 - i) in
  let _, t = build n rev in
  expect_ok t;
  check int "entries" n (T.stats t).entries;
  let shuffled = List.init n (fun i -> i * 7919 mod n) |> List.sort_uniq compare in
  let _, t2 = build (List.length shuffled) shuffled in
  expect_ok t2

let test_iteration_order () =
  let n = 500 in
  let order = List.init n (fun i -> (i * 263) mod n) |> List.sort_uniq compare in
  let _, t = build n order in
  let keys = ref [] in
  T.iter t (fun k _ -> keys := k :: !keys);
  let keys = List.rev !keys in
  check int "count" (List.length order) (List.length keys);
  check bool "sorted" true (keys = List.sort compare keys)

let test_range () =
  let n = 100 in
  let _, t = build n (List.init n (fun i -> i)) in
  let got = T.fold_range ~lo:(key_of 10) ~hi:(key_of 20) t ~init:0 ~f:(fun a _ _ -> a + 1) in
  check int "half-open range" 10 got;
  let got = T.fold_range ~lo:(key_of 95) t ~init:0 ~f:(fun a _ _ -> a + 1) in
  check int "open hi" 5 got;
  let got = T.fold_range ~hi:(key_of 5) t ~init:0 ~f:(fun a _ _ -> a + 1) in
  check int "open lo" 5 got

let test_min_max_last_below () =
  let _, t = build 50 (List.init 50 (fun i -> i)) in
  check (Alcotest.option Alcotest.string) "min" (Some (key_of 0)) (T.min_key t);
  check (Alcotest.option Alcotest.string) "max" (Some (key_of 49)) (T.max_key t);
  (match T.find_last_below t (key_of 30) with
  | Some (k, _) -> check Alcotest.string "predecessor" (key_of 29) k
  | None -> Alcotest.fail "expected predecessor");
  (match T.find_last_below t (key_of 0) with
  | None -> ()
  | Some _ -> Alcotest.fail "nothing below the minimum");
  match T.find_last_below t "zzz" with
  | Some (k, _) -> check Alcotest.string "below sentinel" (key_of 49) k
  | None -> Alcotest.fail "expected max"

let test_delete_all () =
  let n = 1200 in
  let s, t = build n (List.init n (fun i -> i)) in
  (* Delete in an order unrelated to insertion. *)
  let order = List.init n (fun i -> (i * 769) mod n) |> List.sort_uniq compare in
  List.iteri
    (fun step i ->
      check bool "deleted" true (T.delete t (key_of i));
      if step mod 100 = 0 then expect_ok t)
    order;
  expect_ok t;
  check bool "empty at end" true (T.is_empty t);
  check int "entries zero" 0 (T.stats t).entries;
  (* All pages but possibly the root freed: no leak. *)
  check bool "pages reclaimed" true (Mem_store.live_pages s <= 1)

let test_delete_interleaved () =
  let s = Mem_store.make () in
  let t = T.attach s in
  for i = 0 to 999 do
    T.insert t ~key:(key_of i) ~value:(value_of i);
    if i mod 3 = 0 then ignore (T.delete t (key_of (i / 2)))
  done;
  expect_ok t;
  (* Reference check against a Map. *)
  let module M = Map.Make (String) in
  let reference = ref M.empty in
  for i = 0 to 999 do
    reference := M.add (key_of i) (value_of i) !reference;
    if i mod 3 = 0 then reference := M.remove (key_of (i / 2)) !reference
  done;
  M.iter
    (fun k v ->
      match T.find t k with
      | Some v' -> check Alcotest.string "match ref" v v'
      | None -> Alcotest.fail (k ^ " missing"))
    !reference;
  check int "same size" (M.cardinal !reference) (T.stats t).entries

let test_oversized_entry_rejected () =
  let s = Mem_store.make ~page_bytes:256 () in
  let t = T.attach s in
  match T.insert t ~key:"k" ~value:(String.make 300 'x') with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_corrupt_page_detected () =
  let s = Mem_store.make () in
  let t = T.attach s in
  T.insert t ~key:"a" ~value:"1";
  (match Mem_store.get_root s with
  | Some root -> Hashtbl.replace s.Mem_store.pages root (Bytes.make 512 '\xff')
  | None -> Alcotest.fail "no root");
  match T.find t "a" with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Btree.Corrupt _ -> ()

let test_mixed_value_sizes () =
  (* entries from tiny to near the max size share pages; splits must
     balance by bytes, not counts *)
  let s = Mem_store.make () in
  let t = T.attach s in
  let n = 400 in
  for i = 0 to n - 1 do
    let vlen = 1 + (i * 37 mod (T.attach s |> fun _ -> 100)) in
    T.insert t ~key:(key_of i) ~value:(String.make vlen 'v')
  done;
  expect_ok t;
  check int "entries" n (T.stats t).entries;
  for i = 0 to n - 1 do
    match T.find t (key_of i) with
    | Some v -> check int ("len " ^ string_of_int i) (1 + (i * 37 mod 100)) (String.length v)
    | None -> Alcotest.fail (key_of i ^ " lost")
  done

let test_reinsert_after_empty () =
  let s = Mem_store.make () in
  let t = T.attach s in
  for round = 0 to 3 do
    for i = 0 to 199 do
      T.insert t ~key:(key_of i) ~value:(value_of (i + round))
    done;
    for i = 0 to 199 do
      ignore (T.delete t (key_of i))
    done;
    check bool (Printf.sprintf "round %d empty" round) true (T.is_empty t)
  done;
  expect_ok t

(* The node memo never serves a stale node. One seeded sequence of
   inserts (new keys and replacements), deletes, finds and range scans
   runs on a tree over the copying store, which decodes on every read,
   and on two trees attached to one sharing store, which hit their memos
   whenever a page is unchanged. Each step goes to either of the two, so
   each sees pages the other rewrote behind its back. The sequence grows
   the tree to three levels, then shrinks it through merges, and
   allocates well over 128 page ids, so memo slots collide. Every
   result, every check and stats, and the bytes of every page written
   must agree. *)
let test_memo_matches_decoding () =
  let sa = Mem_store.make () and sb = Mem_store.make ~copying:false () in
  let a = T.attach sa and b1 = T.attach sb and b2 = T.attach sb in
  let rng = Cedar_util.Rng.create 16 in
  let same what x y = if x <> y then Alcotest.failf "step %s: trees disagree" what in
  let max_depth = ref 0 in
  let run ~steps ~insert_pct ~delete_pct =
    for i = 1 to steps do
      let what = string_of_int i in
      let b = if Cedar_util.Rng.bool rng then b1 else b2 in
      let key = key_of (Cedar_util.Rng.int rng 3000) in
      let r = Cedar_util.Rng.int rng 100 in
      if r < insert_pct then begin
        let value = value_of (Cedar_util.Rng.int rng 1000) in
        T.insert a ~key ~value;
        T.insert b ~key ~value
      end
      else if r < insert_pct + delete_pct then same what (T.delete a key) (T.delete b key)
      else if r < 90 then begin
        same what (T.find a key) (T.find b key);
        same what (T.find_last_below a key) (T.find_last_below b key)
      end
      else begin
        let hi = key_of (Cedar_util.Rng.int rng 3000) in
        let scan t = T.fold_range ~lo:key ~hi t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
        same what (scan a) (scan b)
      end;
      if i mod 500 = 0 then begin
        expect_ok a;
        List.iter
          (fun b ->
            same what (T.check a) (T.check b);
            same what (T.stats a) (T.stats b);
            same what (T.min_key a, T.max_key a) (T.min_key b, T.max_key b))
          [ b1; b2 ];
        same what sa.Mem_store.written sb.Mem_store.written;
        sa.Mem_store.written <- [];
        sb.Mem_store.written <- [];
        max_depth := max !max_depth (T.stats a).depth
      end
    done
  in
  run ~steps:8000 ~insert_pct:65 ~delete_pct:5;
  run ~steps:10000 ~insert_pct:5 ~delete_pct:65;
  check bool "grew to three levels" true (!max_depth >= 3);
  check bool "merged pages away" true (Hashtbl.length sb.Mem_store.free_list > 100);
  check bool "page ids past the memo size" true (sb.Mem_store.next > 2 * 128);
  check int "same page ids" sa.Mem_store.next sb.Mem_store.next;
  let pages s = List.sort compare (Hashtbl.fold (fun id b acc -> (id, b) :: acc) s.Mem_store.pages []) in
  check bool "same final pages" true (pages sa = pages sb)

(* The reference node codec: a page parsed and written again with
   Bytebuf's reader and writer — kind byte, u16 count, then a leaf's
   (key, value) strings or an internal node's keys and u32 children —
   zero-padded to the page. Returns the node's leaf entries or its
   separators and children, and the re-encoded page. *)
type ref_node = Ref_leaf of (string * string) list | Ref_internal of string list * int list

let reference_codec page_bytes b =
  let r = Cedar_util.Bytebuf.Reader.of_bytes b in
  let module W = Cedar_util.Bytebuf.Writer in
  let module R = Cedar_util.Bytebuf.Reader in
  let w = W.create () in
  let kind = R.u8 r in
  let n = R.u16 r in
  W.u8 w kind;
  W.u16 w n;
  let node =
    match kind with
    | 1 ->
      Ref_leaf
        (List.init n (fun _ ->
             let k = R.string r in
             let v = R.string r in
             W.string w k;
             W.string w v;
             (k, v)))
    | 2 ->
      let keys = List.init n (fun _ -> R.string r) in
      List.iter (W.string w) keys;
      let children = List.init (n + 1) (fun _ -> R.u32 r) in
      List.iter (W.u32 w) children;
      Ref_internal (keys, children)
    | k -> Alcotest.failf "unknown node kind %d" k
  in
  (node, W.to_sector w ~size:page_bytes)

(* Every page the tree writes is the reference encoding of the node it
   holds, byte for byte, zero padding included; and the pages, read
   through the reference codec alone, hold exactly a Map's bindings in
   order. A seeded sequence of inserts (new keys and replacements) and
   deletes on 256-byte pages grows the tree past two levels of internal
   nodes, then shrinks it through merges and rebalances. *)
let test_pages_match_reference_encoding () =
  let module M = Map.Make (String) in
  let s = Mem_store.make ~page_bytes:256 () in
  let t = T.attach s in
  let rng = Cedar_util.Rng.create 26 in
  let reference = ref M.empty in
  let pages = ref 0 in
  let check_written () =
    List.iter
      (fun (id, b) ->
        incr pages;
        let _, again = reference_codec 256 (Bytes.of_string b) in
        if not (String.equal b (Bytes.to_string again)) then
          Alcotest.failf "page %d differs from its reference encoding" id)
      s.Mem_store.written;
    s.Mem_store.written <- []
  in
  let rec bindings id acc =
    match fst (reference_codec 256 (Hashtbl.find s.Mem_store.pages id)) with
    | Ref_leaf entries -> List.rev_append entries acc
    | Ref_internal (_, children) -> List.fold_left (fun acc c -> bindings c acc) acc children
  in
  let same_content what =
    let got = match Mem_store.get_root s with None -> [] | Some r -> List.rev (bindings r []) in
    if got <> M.bindings !reference then Alcotest.failf "%s: pages hold the wrong bindings" what
  in
  let run ~steps ~insert_pct =
    for _ = 1 to steps do
      let key = key_of (Cedar_util.Rng.int rng 2000) in
      if Cedar_util.Rng.int rng 100 < insert_pct then begin
        let value = value_of (Cedar_util.Rng.int rng 60) in
        T.insert t ~key ~value;
        reference := M.add key value !reference
      end
      else begin
        ignore (T.delete t key : bool);
        reference := M.remove key !reference
      end;
      check_written ()
    done
  in
  run ~steps:4000 ~insert_pct:80;
  check bool "three or more levels" true ((T.stats t).depth >= 3);
  same_content "after growth";
  run ~steps:6000 ~insert_pct:10;
  same_content "after shrinking";
  expect_ok t;
  check bool "pages written" true (!pages > 5000)

(* [fold_range ~lo ~hi] is the full iteration filtered to [lo, hi), for
   seeded bounds drawn from: no bound; every key ever inserted, present
   or deleted, so every separator of the tree, stale ones included;
   probes between adjacent keys, so between leaves; below the minimum
   and above the maximum. Pairs are drawn in either order, so lo >= hi
   is covered, and so are lo = hi. The scan is also bounded: it reads
   exactly the pages whose key span, as the separators above them
   delimit it, meets [lo, hi) — counted on the pages through the
   reference codec. *)
let test_range_bounds_match_filter () =
  let s = Mem_store.make ~page_bytes:256 () in
  let t = T.attach s in
  let rng = Cedar_util.Rng.create 370 in
  let ever = Hashtbl.create 512 in
  for _ = 1 to 1200 do
    let i = Cedar_util.Rng.int rng 400 in
    if Cedar_util.Rng.int rng 100 < 75 then begin
      T.insert t ~key:(key_of i) ~value:(value_of (i mod 100));
      Hashtbl.replace ever (key_of i) ()
    end
    else ignore (T.delete t (key_of i) : bool)
  done;
  check bool "internal levels" true ((T.stats t).depth >= 3);
  let all = T.fold_range t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) |> List.rev |> Array.of_list in
  (* The index of the first binding at or above [b]. *)
  let first_from = function
    | None -> 0
    | Some b ->
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if String.compare (fst all.(mid)) b < 0 then go (mid + 1) hi else go lo mid
      in
      go 0 (Array.length all)
  in
  let probes =
    Hashtbl.fold (fun k () acc -> k :: (k ^ "\000") :: (k ^ "~") :: acc) ever [ ""; "\255" ]
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let bound () =
    if Cedar_util.Rng.int rng 8 = 0 then None
    else Some probes.(Cedar_util.Rng.int rng (Array.length probes))
  in
  (* Pages whose span meets [lo, hi): a child j of an internal node spans
     [keys.(j-1), keys.(j)). *)
  let rec pages_meeting lo hi id =
    match fst (reference_codec 256 (Hashtbl.find s.Mem_store.pages id)) with
    | Ref_leaf _ -> 1
    | Ref_internal (keys, children) ->
      let keys = Array.of_list keys in
      let n = Array.length keys in
      List.fold_left ( + ) 1
        (List.mapi
           (fun j c ->
             let above_lo = j = n || match lo with None -> true | Some l -> keys.(j) > l in
             let below_hi = j = 0 || match hi with None -> true | Some h -> keys.(j - 1) < h in
             if above_lo && below_hi then pages_meeting lo hi c else 0)
           children)
  in
  let root = Option.get (Mem_store.get_root s) in
  let same lo hi =
    let what = Printf.sprintf "range [%s, %s)" (Option.value lo ~default:"-") (Option.value hi ~default:"-") in
    let a = first_from lo and b = match hi with None -> Array.length all | h -> first_from h in
    let want = if a >= b then [] else Array.to_list (Array.sub all a (b - a)) in
    let reads = s.Mem_store.reads in
    let got = T.fold_range ?lo ?hi t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) |> List.rev in
    if got <> want then
      Alcotest.failf "%s: %d bindings, want %d" what (List.length got) (List.length want);
    if s.Mem_store.reads - reads <> pages_meeting lo hi root then
      Alcotest.failf "%s: read %d pages, want %d" what (s.Mem_store.reads - reads)
        (pages_meeting lo hi root)
  in
  same None None;
  Array.iter
    (fun p ->
      same (Some p) None;
      same None (Some p);
      same (Some p) (Some p))
    probes;
  for _ = 1 to 3000 do
    same (bound ()) (bound ())
  done

let prop_range_matches_filter =
  QCheck.Test.make ~name:"range queries match filtering the full iteration" ~count:80
    QCheck.(triple (small_list (int_bound 200)) (int_bound 220) (int_bound 220))
    (fun (keys, a, b) ->
      let lo = key_of (min a b) and hi = key_of (max a b) in
      let s = Mem_store.make () in
      let t = T.attach s in
      List.iter (fun i -> T.insert t ~key:(key_of i) ~value:(value_of i)) keys;
      let ranged = T.fold_range ~lo ~hi t ~init:[] ~f:(fun acc k _ -> k :: acc) in
      let all = T.fold_range t ~init:[] ~f:(fun acc k _ -> k :: acc) in
      let filtered = List.filter (fun k -> String.compare lo k <= 0 && String.compare k hi < 0) all in
      ranged = filtered)

(* Property: [find_last_below] is the greatest key strictly below the
   probe, as a sorted list of the tree's keys says. The trees hold
   name-table keys, several versions per name, deep enough to have
   internal nodes; the probes are keys present and absent, keys below
   the minimum and above the maximum, and both ends of [Fname.bounds]
   for present and absent names. *)
let prop_find_last_below_vs_sorted =
  let module Fname = Cedar_fsbase.Fname in
  let open QCheck in
  let name i = Printf.sprintf "d%d/f%d" (i mod 5) i in
  Test.make ~name:"find_last_below matches a sorted-list reference" ~count:100
    (pair
       (list_of_size Gen.(0 -- 300) (pair (int_bound 80) (int_range 1 4)))
       (small_list (pair (int_bound 90) (int_range 1 6))))
    (fun (entries, probes) ->
      let s = Mem_store.make () in
      let t = T.attach s in
      List.iter
        (fun (n, v) -> T.insert t ~key:(Fname.key ~name:(name n) ~version:v) ~value:(value_of n))
        entries;
      let sorted = T.fold_range t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) |> List.rev in
      let reference probe =
        List.fold_left (fun best (k, v) -> if String.compare k probe < 0 then Some (k, v) else best)
          None sorted
      in
      let probes =
        ""
        :: "\255\255"
        :: List.map fst sorted
        @ List.concat_map
            (fun (n, v) ->
              let lo, hi = Fname.bounds ~name:(name n) in
              [ Fname.key ~name:(name n) ~version:v; lo; hi ])
            probes
      in
      List.for_all (fun p -> T.find_last_below t p = reference p) probes)

(* Property: a random op sequence leaves the tree equivalent to a Map and
   structurally valid. *)
let prop_btree_vs_map =
  let open QCheck in
  Test.make ~name:"btree equivalent to Map under random ops" ~count:60
    (list (pair (int_bound 300) (option (int_bound 50))))
    (fun ops ->
      let module M = Map.Make (String) in
      let s = Mem_store.make () in
      let t = T.attach s in
      let reference = ref M.empty in
      List.iter
        (fun (k, v) ->
          let key = key_of k in
          match v with
          | Some v ->
            T.insert t ~key ~value:(value_of v);
            reference := M.add key (value_of v) !reference
          | None ->
            let in_map = M.mem key !reference in
            let in_tree = T.delete t key in
            if in_map <> in_tree then QCheck.Test.fail_report "delete disagreed";
            reference := M.remove key !reference)
        ops;
      (match T.check t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report ("invariant: " ^ m));
      M.for_all (fun k v -> T.find t k = Some v) !reference
      && (T.stats t).entries = M.cardinal !reference)

let suite =
  [
    ("empty tree", `Quick, test_empty);
    ("single entry", `Quick, test_single);
    ("many sequential inserts", `Quick, test_many_sequential);
    ("reverse and shuffled inserts", `Quick, test_many_reverse_and_shuffled);
    ("iteration order", `Quick, test_iteration_order);
    ("range queries", `Quick, test_range);
    ("min/max/find_last_below", `Quick, test_min_max_last_below);
    ("delete all", `Quick, test_delete_all);
    ("delete interleaved", `Quick, test_delete_interleaved);
    ("oversized entry rejected", `Quick, test_oversized_entry_rejected);
    ("corrupt page detected", `Quick, test_corrupt_page_detected);
    ("mixed value sizes", `Quick, test_mixed_value_sizes);
    ("reinsert after emptying", `Quick, test_reinsert_after_empty);
    ("node memo agrees with decoding every read", `Quick, test_memo_matches_decoding);
    ("pages match the reference encoding", `Quick, test_pages_match_reference_encoding);
    ("range bounds match filtering", `Quick, test_range_bounds_match_filter);
    QCheck_alcotest.to_alcotest prop_range_matches_filter;
    QCheck_alcotest.to_alcotest prop_btree_vs_map;
    QCheck_alcotest.to_alcotest prop_find_last_below_vs_sorted;
  ]
