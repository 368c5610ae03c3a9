open Cedar_util
open Cedar_fsbase

type kind = Local | Cached of { server : string; last_used : int }

type t = {
  uid : int64;
  name : string;
  version : int;
  keep : int;
  byte_size : int;
  created : int;
  runs : Run_table.t;
  kind : kind;
}

let magic = 0x4c445232 (* "LDR2" *)

let of_entry ~name ~version (e : Entry.t) =
  {
    uid = e.Entry.uid;
    name;
    version;
    keep = e.Entry.keep;
    byte_size = e.Entry.byte_size;
    created = e.Entry.created;
    runs = e.Entry.runs;
    kind =
      (match e.Entry.kind with
      | Entry.Cached { server; last_used } -> Cached { server; last_used }
      | Entry.Local | Entry.Symlink _ -> Local);
  }

let to_entry t ~anchor =
  {
    Entry.uid = t.uid;
    keep = t.keep;
    byte_size = t.byte_size;
    created = t.created;
    runs = t.runs;
    anchor;
    kind =
      (match t.kind with
      | Local -> Entry.Local
      | Cached { server; last_used } -> Entry.Cached { server; last_used });
  }

let encode t ~sector_bytes =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic;
  Bytebuf.Writer.u64 w t.uid;
  Bytebuf.Writer.string w t.name;
  Bytebuf.Writer.u32 w t.version;
  Bytebuf.Writer.u16 w t.keep;
  Bytebuf.Writer.i64 w t.byte_size;
  Bytebuf.Writer.i64 w t.created;
  (match t.kind with
  | Local -> Bytebuf.Writer.u8 w 0
  | Cached { server; last_used } ->
    Bytebuf.Writer.u8 w 1;
    Bytebuf.Writer.string w server;
    Bytebuf.Writer.i64 w last_used);
  Run_table.encode w t.runs;
  (* Self-checksum so a torn or wild write is detectable. *)
  Bytebuf.Writer.seal w ~size:sector_bytes

let decode b =
  match
    let r = Bytebuf.Reader.of_bytes b in
    let m = Bytebuf.Reader.u32 r in
    if m <> magic then None
    else begin
      let uid = Bytebuf.Reader.u64 r in
      let name = Bytebuf.Reader.string r in
      let version = Bytebuf.Reader.u32 r in
      let keep = Bytebuf.Reader.u16 r in
      let byte_size = Bytebuf.Reader.i64 r in
      let created = Bytebuf.Reader.i64 r in
      let kind =
        match Bytebuf.Reader.u8 r with
        | 0 -> Local
        | 1 ->
          let server = Bytebuf.Reader.string r in
          let last_used = Bytebuf.Reader.i64 r in
          Cached { server; last_used }
        | n -> raise (Bytebuf.Decode_error (Printf.sprintf "bad leader kind %d" n))
      in
      let runs = Run_table.decode r in
      let body_len = Bytebuf.Reader.pos r in
      let crc = Bytebuf.Reader.u32 r in
      if crc <> Crc32.bytes ~pos:0 ~len:body_len b then None
      else Some { uid; name; version; keep; byte_size; created; runs; kind }
    end
  with
  | v -> v
  | exception Bytebuf.Decode_error _ -> None
  | exception Invalid_argument _ -> None

let matches t ~name ~version (e : Entry.t) =
  Int64.equal t.uid e.Entry.uid
  && String.equal t.name name
  && t.version = version
  && t.byte_size = e.Entry.byte_size
  && t.created = e.Entry.created
  && Run_table.equal t.runs e.Entry.runs
