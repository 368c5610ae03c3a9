open Cedar_util

module type STORE = sig
  type t

  val page_bytes : t -> int
  val read : t -> int -> bytes
  val write : t -> int -> bytes -> unit
  val alloc : t -> int
  val free : t -> int -> unit
  val get_root : t -> int option
  val set_root : t -> int option -> unit
end

type stats = { depth : int; pages : int; entries : int; used_bytes : int }

exception Corrupt of string

module Make (S : STORE) = struct
  type node =
    | Leaf of (string * string) array
    | Internal of { keys : string array; children : int array }

  (* [memo_*] is a direct-mapped cache of decoded nodes, one slot per
     [id mod memo_slots]: the bytes a node was decoded from (or encoded
     to) and the node itself. A slot serves a read only while the store
     hands back those very bytes ([==]), which under the STORE ownership
     contract means the page is unchanged. *)
  type t = {
    store : S.t;
    page_bytes : int;
    memo_ids : int array;
    memo_bytes : bytes array;
    memo_nodes : node array;
  }

  let memo_slots = 128

  let attach store =
    {
      store;
      page_bytes = S.page_bytes store;
      memo_ids = Array.make memo_slots (-1);
      memo_bytes = Array.make memo_slots Bytes.empty;
      memo_nodes = Array.make memo_slots (Leaf [||]);
    }

  (* ---------------------------------------------------------------- *)
  (* Node codec                                                        *)

  let leaf_kind = 1
  let internal_kind = 2
  let node_overhead = 3 (* kind byte + u16 count *)
  let leaf_entry_bytes k v = 4 + String.length k + String.length v
  let internal_key_bytes k = 2 + String.length k

  let encoded_bytes = function
    | Leaf entries ->
      Array.fold_left
        (fun acc (k, v) -> acc + leaf_entry_bytes k v)
        node_overhead entries
    | Internal { keys; children } ->
      Array.fold_left (fun acc k -> acc + internal_key_bytes k) node_overhead keys
      + (4 * Array.length children)

  (* One pass into one zeroed page: the kind byte, a u16 count, then a
     leaf's (key, value) pairs or an internal node's keys and children,
     strings as a u16 length and their bytes, children as u32s, all
     little-endian. Callers check [encoded_bytes] against the page before
     writing a node, and [insert] bounds every entry, so each field fits
     its width. *)
  let encode t node =
    let b = Bytes.make t.page_bytes '\000' in
    let put_string pos s =
      let n = String.length s in
      Bytes.set_uint16_le b pos n;
      Bytes.blit_string s 0 b (pos + 2) n;
      pos + 2 + n
    in
    (match node with
    | Leaf entries ->
      Bytes.set_uint8 b 0 leaf_kind;
      Bytes.set_uint16_le b 1 (Array.length entries);
      ignore
        (Array.fold_left
           (fun pos (k, v) -> put_string (put_string pos k) v)
           node_overhead entries
          : int)
    | Internal { keys; children } ->
      assert (Array.length children = Array.length keys + 1);
      Bytes.set_uint8 b 0 internal_kind;
      Bytes.set_uint16_le b 1 (Array.length keys);
      let pos = Array.fold_left put_string node_overhead keys in
      Array.iteri
        (fun i c -> Bytes.set_int32_le b (pos + (4 * i)) (Int32.of_int c))
        children);
    b

  let decode b =
    let r = Bytebuf.Reader.of_bytes b in
    match Bytebuf.Reader.u8 r with
    | k when k = leaf_kind ->
      let n = Bytebuf.Reader.u16 r in
      Leaf
        (Array.init n (fun _ ->
             let k = Bytebuf.Reader.string r in
             let v = Bytebuf.Reader.string r in
             (k, v)))
    | k when k = internal_kind ->
      let n = Bytebuf.Reader.u16 r in
      let keys = Array.init n (fun _ -> Bytebuf.Reader.string r) in
      let children = Array.init (n + 1) (fun _ -> Bytebuf.Reader.u32 r) in
      Internal { keys; children }
    | k -> raise (Corrupt (Printf.sprintf "unknown node kind %d" k))

  let remember t id b node =
    let slot = id land (memo_slots - 1) in
    t.memo_ids.(slot) <- id;
    t.memo_bytes.(slot) <- b;
    t.memo_nodes.(slot) <- node

  (* Every access still goes through [S.read], so the store's caching and
     I/O are exactly those of a decode per access. Memoised nodes are
     shared, never edited: the code below copies a node's arrays
     ([Array.copy], [array_insert], [Array.sub], ...) before changing
     them, and the memo depends on that. *)
  let read_node t id =
    let b = S.read t.store id in
    let slot = id land (memo_slots - 1) in
    if t.memo_ids.(slot) = id && t.memo_bytes.(slot) == b then t.memo_nodes.(slot)
    else
      match decode b with
      | node ->
        remember t id b node;
        node
      | exception Bytebuf.Decode_error msg ->
        raise (Corrupt (Printf.sprintf "page %d: %s" id msg))

  let write_node t id node =
    let b = encode t node in
    S.write t.store id b;
    remember t id b node

  (* ---------------------------------------------------------------- *)
  (* Search helpers                                                    *)

  (* Number of separator keys <= [key]; the index of the child subtree in
     which [key] itself belongs. *)
  let child_index keys key =
    let rec go lo hi =
      (* invariant: keys.(lo-1) <= key < keys.(hi) (with sentinels) *)
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if String.compare keys.(mid) key <= 0 then go (mid + 1) hi
        else go lo mid
    in
    go 0 (Array.length keys)

  (* Position of [key] in a sorted entry array: [Found i] or [Insert_at i]. *)
  let leaf_position entries key =
    let rec go lo hi =
      if lo >= hi then `Insert_at lo
      else
        let mid = (lo + hi) / 2 in
        let c = String.compare (fst entries.(mid)) key in
        if c = 0 then `Found mid else if c < 0 then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length entries)

  let array_insert a i x =
    let n = Array.length a in
    let b = Array.make (n + 1) x in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    b

  let array_remove a i =
    let n = Array.length a in
    let b = Array.sub a 0 (n - 1) in
    Array.blit a (i + 1) b i (n - 1 - i);
    b

  (* ---------------------------------------------------------------- *)
  (* Insert                                                            *)

  let max_entry_bytes t = (t.page_bytes - node_overhead) / 4

  (* Split a leaf entry array at the byte midpoint. *)
  let split_leaf entries =
    let total = Array.fold_left (fun acc (k, v) -> acc + leaf_entry_bytes k v) 0 entries in
    let n = Array.length entries in
    let rec cut i acc =
      if i >= n - 1 then n - 1
      else
        let acc = acc + leaf_entry_bytes (fst entries.(i)) (snd entries.(i)) in
        if acc * 2 >= total then i + 1 else cut (i + 1) acc
    in
    let at = max 1 (cut 0 0) in
    (Array.sub entries 0 at, Array.sub entries at (n - at))

  let rec insert_rec t id key value =
    match read_node t id with
    | Leaf entries ->
      let entries =
        match leaf_position entries key with
        | `Found i ->
          let a = Array.copy entries in
          a.(i) <- (key, value);
          a
        | `Insert_at i -> array_insert entries i (key, value)
      in
      let node = Leaf entries in
      if encoded_bytes node <= t.page_bytes then begin
        write_node t id node;
        `Ok
      end
      else begin
        let left, right = split_leaf entries in
        let rid = S.alloc t.store in
        write_node t id (Leaf left);
        write_node t rid (Leaf right);
        `Split (fst right.(0), rid)
      end
    | Internal { keys; children } -> (
      let i = child_index keys key in
      match insert_rec t children.(i) key value with
      | `Ok -> `Ok
      | `Split (sep, rid) ->
        let keys = array_insert keys i sep in
        let children = array_insert children (i + 1) rid in
        let node = Internal { keys; children } in
        if encoded_bytes node <= t.page_bytes then begin
          write_node t id node;
          `Ok
        end
        else begin
          (* Promote the middle key; it is kept in neither half. *)
          let mid = Array.length keys / 2 in
          let sep_up = keys.(mid) in
          let left =
            Internal
              { keys = Array.sub keys 0 mid; children = Array.sub children 0 (mid + 1) }
          in
          let nright = Array.length keys - mid - 1 in
          let right =
            Internal
              {
                keys = Array.sub keys (mid + 1) nright;
                children = Array.sub children (mid + 1) (nright + 1);
              }
          in
          let rid2 = S.alloc t.store in
          write_node t id left;
          write_node t rid2 right;
          `Split (sep_up, rid2)
        end)

  let insert t ~key ~value =
    if leaf_entry_bytes key value > max_entry_bytes t then
      invalid_arg
        (Printf.sprintf "Btree.insert: entry of %d bytes exceeds max %d"
           (leaf_entry_bytes key value) (max_entry_bytes t));
    match S.get_root t.store with
    | None ->
      let id = S.alloc t.store in
      write_node t id (Leaf [| (key, value) |]);
      S.set_root t.store (Some id)
    | Some root -> (
      match insert_rec t root key value with
      | `Ok -> ()
      | `Split (sep, rid) ->
        let nid = S.alloc t.store in
        write_node t nid (Internal { keys = [| sep |]; children = [| root; rid |] });
        S.set_root t.store (Some nid))

  (* ---------------------------------------------------------------- *)
  (* Find                                                              *)

  let rec find_rec t id key =
    match read_node t id with
    | Leaf entries -> (
      match leaf_position entries key with
      | `Found i -> Some (snd entries.(i))
      | `Insert_at _ -> None)
    | Internal { keys; children } -> find_rec t children.(child_index keys key) key

  let find t key =
    match S.get_root t.store with None -> None | Some root -> find_rec t root key

  (* ---------------------------------------------------------------- *)
  (* Delete                                                            *)

  let min_fill t = t.page_bytes / 4

  let underfull t node = encoded_bytes node < min_fill t

  (* Rebalance or merge children [i] and [i+1] of the internal node in
     page [id]. Returns the updated parent node. *)
  let fix_pair t ~keys ~children i =
    let li = children.(i) and ri = children.(i + 1) in
    match (read_node t li, read_node t ri) with
    | Leaf le, Leaf re ->
      let all = Array.append le re in
      let merged = Leaf all in
      if encoded_bytes merged <= t.page_bytes then begin
        write_node t li merged;
        S.free t.store ri;
        Internal { keys = array_remove keys i; children = array_remove children (i + 1) }
      end
      else begin
        let l, r = split_leaf all in
        write_node t li (Leaf l);
        write_node t ri (Leaf r);
        let keys = Array.copy keys in
        keys.(i) <- fst r.(0);
        Internal { keys; children }
      end
    | Internal l, Internal r ->
      let all_keys = Array.concat [ l.keys; [| keys.(i) |]; r.keys ] in
      let all_children = Array.append l.children r.children in
      let merged = Internal { keys = all_keys; children = all_children } in
      if encoded_bytes merged <= t.page_bytes then begin
        write_node t li merged;
        S.free t.store ri;
        Internal { keys = array_remove keys i; children = array_remove children (i + 1) }
      end
      else begin
        let mid = Array.length all_keys / 2 in
        let sep = all_keys.(mid) in
        write_node t li
          (Internal
             { keys = Array.sub all_keys 0 mid; children = Array.sub all_children 0 (mid + 1) });
        let nr = Array.length all_keys - mid - 1 in
        write_node t ri
          (Internal
             {
               keys = Array.sub all_keys (mid + 1) nr;
               children = Array.sub all_children (mid + 1) (nr + 1);
             });
        let keys = Array.copy keys in
        keys.(i) <- sep;
        Internal { keys; children }
      end
    | Leaf _, Internal _ | Internal _, Leaf _ ->
      raise (Corrupt "sibling nodes of different kinds")

  let rec delete_rec t id key =
    match read_node t id with
    | Leaf entries -> (
      match leaf_position entries key with
      | `Insert_at _ -> false
      | `Found i ->
        write_node t id (Leaf (array_remove entries i));
        true)
    | Internal { keys; children } ->
      let i = child_index keys key in
      let found = delete_rec t children.(i) key in
      if found && underfull t (read_node t children.(i)) && Array.length children > 1
      then begin
        let pair = if i = Array.length children - 1 then i - 1 else i in
        let node' = fix_pair t ~keys ~children pair in
        write_node t id node'
      end;
      found

  let delete t key =
    match S.get_root t.store with
    | None -> false
    | Some root ->
      let found = delete_rec t root key in
      (if found then
         match read_node t root with
         | Leaf [||] ->
           S.free t.store root;
           S.set_root t.store None
         | Internal { keys = [||]; children = [| only |] } ->
           S.free t.store root;
           S.set_root t.store (Some only)
         | Leaf _ | Internal _ -> ());
      found

  (* ---------------------------------------------------------------- *)
  (* Iteration                                                         *)

  let in_lo lo k = match lo with None -> true | Some l -> String.compare k l >= 0
  let in_hi hi k = match hi with None -> true | Some h -> String.compare k h < 0

  (* Visits only what can hold keys in [lo, hi): a leaf from its first
     entry at or above [lo], an internal node from the child [lo] belongs
     in, each up to the first key or separator at or above [hi]. *)
  let rec iter_rec t ?lo ?hi id f =
    match read_node t id with
    | Leaf entries ->
      let n = Array.length entries in
      let rec go i =
        if i < n then begin
          let k, v = entries.(i) in
          if in_hi hi k then begin
            f k v;
            go (i + 1)
          end
        end
      in
      go
        (match lo with
        | None -> 0
        | Some l -> ( match leaf_position entries l with `Found i | `Insert_at i -> i))
    | Internal { keys; children } ->
      let n = Array.length keys in
      (* Subtree j spans [keys.(j-1), keys.(j)). *)
      let rec go j =
        if j <= n && (j = 0 || in_hi hi keys.(j - 1)) then begin
          iter_rec t ?lo ?hi children.(j) f;
          go (j + 1)
        end
      in
      go (match lo with None -> 0 | Some l -> child_index keys l)

  let iter_range ?lo ?hi t f =
    match S.get_root t.store with
    | None -> ()
    | Some root -> iter_rec t ?lo ?hi root f

  let fold_range ?lo ?hi t ~init ~f =
    let acc = ref init in
    iter_range ?lo ?hi t (fun k v -> acc := f !acc k v);
    !acc

  let iter t f = iter_range t f

  let min_key t =
    let rec go id =
      match read_node t id with
      | Leaf [||] -> None
      | Leaf entries -> Some (fst entries.(0))
      | Internal { children; _ } -> go children.(0)
    in
    match S.get_root t.store with None -> None | Some r -> go r

  let max_key t =
    let rec go id =
      match read_node t id with
      | Leaf [||] -> None
      | Leaf entries -> Some (fst entries.(Array.length entries - 1))
      | Internal { children; _ } -> go children.(Array.length children - 1)
    in
    match S.get_root t.store with None -> None | Some r -> go r

  let rec max_binding t id =
    match read_node t id with
    | Leaf [||] -> None
    | Leaf entries -> Some entries.(Array.length entries - 1)
    | Internal { children; _ } -> max_binding t children.(Array.length children - 1)

  let find_last_below t key =
    let rec go id =
      match read_node t id with
      | Leaf entries -> (
        (* The last entry before the one [key] would occupy. *)
        let i = match leaf_position entries key with `Found i | `Insert_at i -> i in
        if i = 0 then None else Some entries.(i - 1))
      | Internal { keys; children } ->
        let i = child_index keys key in
        let rec try_from j =
          if j < 0 then None
          else
            match if j = i then go children.(j) else max_binding t children.(j) with
            | Some kv -> Some kv
            | None -> try_from (j - 1)
        in
        try_from i
    in
    match S.get_root t.store with None -> None | Some r -> go r

  let is_empty t =
    match S.get_root t.store with
    | None -> true
    | Some r -> ( match read_node t r with Leaf [||] -> true | _ -> false)

  (* ---------------------------------------------------------------- *)
  (* Stats and validation                                              *)

  let stats t =
    let pages = ref 0 and entries = ref 0 and used = ref 0 and depth = ref 0 in
    let rec go d id =
      incr pages;
      if d > !depth then depth := d;
      match read_node t id with
      | Leaf e ->
        entries := !entries + Array.length e;
        used := !used + encoded_bytes (Leaf e)
      | Internal { keys; children } ->
        used := !used + encoded_bytes (Internal { keys; children });
        Array.iter (go (d + 1)) children
    in
    (match S.get_root t.store with None -> () | Some r -> go 1 r);
    { depth = !depth; pages = !pages; entries = !entries; used_bytes = !used }

  let check t =
    let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
    let exception Bad of string in
    let bad fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
    let leaf_depths = ref [] in
    let check_sorted what keys =
      for i = 1 to Array.length keys - 1 do
        if String.compare keys.(i - 1) keys.(i) >= 0 then
          bad "%s keys not strictly sorted at %d" what i
      done
    in
    let rec go d lo hi id =
      let node = read_node t id in
      if encoded_bytes node > t.page_bytes then
        bad "page %d oversize: %d > %d" id (encoded_bytes node) t.page_bytes;
      match node with
      | Leaf entries ->
        check_sorted "leaf" (Array.map fst entries);
        Array.iter
          (fun (k, _) ->
            if not (in_lo lo k) then bad "leaf key %S below bound" k;
            if not (in_hi hi k) then bad "leaf key %S above bound" k)
          entries;
        leaf_depths := d :: !leaf_depths
      | Internal { keys; children } ->
        if Array.length children <> Array.length keys + 1 then
          bad "page %d child/key count mismatch" id;
        if Array.length keys = 0 then bad "internal page %d with no keys" id;
        check_sorted "internal" keys;
        Array.iter
          (fun k ->
            if not (in_lo lo k) then bad "separator %S below bound" k;
            if not (in_hi hi k) then bad "separator %S above bound" k)
          keys;
        Array.iteri
          (fun j child ->
            let lo' = if j = 0 then lo else Some keys.(j - 1) in
            let hi' = if j = Array.length keys then hi else Some keys.(j) in
            go (d + 1) lo' hi' child)
          children
    in
    match S.get_root t.store with
    | None -> Ok ()
    | Some root -> (
      match go 1 None None root with
      | () -> (
        match List.sort_uniq compare !leaf_depths with
        | [] | [ _ ] -> Ok ()
        | ds -> fail "leaves at %d distinct depths" (List.length ds))
      | exception Bad msg -> Error msg
      | exception Corrupt msg -> Error ("corrupt: " ^ msg))
end
