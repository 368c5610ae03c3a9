open Cedar_util

type kind =
  | Local
  | Symlink of { target : string }
  | Cached of { server : string; mutable last_used : int }

type t = {
  uid : int64;
  keep : int;
  byte_size : int;
  created : int;
  runs : Run_table.t;
  anchor : int;
  kind : kind;
}

let local ~uid ~keep ~byte_size ~created ~runs ~anchor =
  { uid; keep; byte_size; created; runs; anchor; kind = Local }

let encode t =
  let w = Bytebuf.Writer.create ~initial:64 () in
  Bytebuf.Writer.u64 w t.uid;
  Bytebuf.Writer.u16 w t.keep;
  Bytebuf.Writer.i64 w t.byte_size;
  Bytebuf.Writer.i64 w t.created;
  Bytebuf.Writer.u32 w (t.anchor + 1);
  Run_table.encode w t.runs;
  (match t.kind with
  | Local -> Bytebuf.Writer.u8 w 0
  | Symlink { target } ->
    Bytebuf.Writer.u8 w 1;
    Bytebuf.Writer.string w target
  | Cached { server; last_used } ->
    Bytebuf.Writer.u8 w 2;
    Bytebuf.Writer.string w server;
    Bytebuf.Writer.i64 w last_used);
  Bytes.to_string (Bytebuf.Writer.contents w)

let decode s =
  let r = Bytebuf.Reader.of_bytes (Bytes.unsafe_of_string s) in
  let uid = Bytebuf.Reader.u64 r in
  let keep = Bytebuf.Reader.u16 r in
  let byte_size = Bytebuf.Reader.i64 r in
  let created = Bytebuf.Reader.i64 r in
  let anchor = Bytebuf.Reader.u32 r - 1 in
  let runs = Run_table.decode r in
  let kind =
    match Bytebuf.Reader.u8 r with
    | 0 -> Local
    | 1 -> Symlink { target = Bytebuf.Reader.string r }
    | 2 ->
      let server = Bytebuf.Reader.string r in
      let last_used = Bytebuf.Reader.i64 r in
      Cached { server; last_used }
    | n -> raise (Bytebuf.Decode_error (Printf.sprintf "bad entry kind %d" n))
  in
  { uid; keep; byte_size; created; runs; anchor; kind }

let equal a b =
  a.uid = b.uid && a.keep = b.keep && a.byte_size = b.byte_size
  && a.created = b.created && a.anchor = b.anchor
  && Run_table.equal a.runs b.runs
  &&
  match (a.kind, b.kind) with
  | Local, Local -> true
  | Symlink { target = t1 }, Symlink { target = t2 } -> t1 = t2
  | Cached { server = s1; last_used = l1 }, Cached { server = s2; last_used = l2 } ->
    s1 = s2 && l1 = l2
  | (Local | Symlink _ | Cached _), _ -> false
