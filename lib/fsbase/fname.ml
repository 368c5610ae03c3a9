let max_name_bytes = 100
let max_version = 999_999

let validate name =
  if String.length name = 0 then Error "empty name"
  else if String.length name > max_name_bytes then Error "name too long"
  else if
    String.exists (fun c -> c = '!' || Char.code c < 0x20 || Char.code c = 0x7f) name
  then Error "name contains '!' or control characters"
  else Ok ()

let key ~name ~version =
  if version < 1 || version > max_version then invalid_arg "Fname.key: version";
  (match validate name with
  | Ok () -> ()
  | Error m -> invalid_arg ("Fname.key: " ^ m));
  Printf.sprintf "%s!%06d" name version

let bounds ~name =
  (* '!' is 0x21 and '"' is 0x22, so this brackets exactly the keys of
     [name]'s versions; a longer name ("foo.txt" vs "foo") sorts outside. *)
  (name ^ "!", name ^ "\"")

let prefix_bound prefix =
  let rec last n =
    if n = 0 then None
    else if prefix.[n - 1] = '\xff' then last (n - 1)
    else
      let next = Char.chr (Char.code prefix.[n - 1] + 1) in
      Some (String.sub prefix 0 (n - 1) ^ String.make 1 next)
  in
  last (String.length prefix)

let parse k =
  match String.rindex_opt k '!' with
  | None -> None
  | Some i ->
    let name = String.sub k 0 i in
    let v = String.sub k (i + 1) (String.length k - i - 1) in
    (match int_of_string_opt v with
    | Some version when version >= 1 && version <= max_version -> Some (name, version)
    | Some _ | None -> None)

(* FNV-1a, 32-bit. Stable across runs and OCaml versions by
   construction (no Hashtbl.hash, whose output is unspecified), which
   is what lets a rebooted volume re-derive the same shard for every
   name it logged. *)
let fnv1a s ~len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code s.[i]) * 0x01000193 land 0xffffffff
  done;
  !h

let shard_prefix name =
  match String.index_opt name '/' with
  | Some i when i > 0 -> i
  | Some _ | None -> String.length name

let shard ~shards name =
  if shards < 1 then invalid_arg "Fname.shard: shards < 1";
  if shards = 1 then 0 else fnv1a name ~len:(shard_prefix name) mod shards

(* The hash is not invertible, so probe "v<k>", "v<k>-1", ... until one
   routes to [k]. Expected probes: [shards]; each candidate is a fresh
   uniform draw, and the result is a pure function of (shards, k). *)
let shard_dir ~shards k =
  if k < 0 || k >= shards then invalid_arg "Fname.shard_dir: shard out of range";
  let rec find n =
    let d =
      if n = 0 then Printf.sprintf "v%d" k else Printf.sprintf "v%d-%d" k n
    in
    if shard ~shards d = k then d else find (n + 1)
  in
  find 0
