open Cedar_util
open Cedar_disk
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

let sectors = 2
let magic = 0x43484431 (* "CHD1" *)

let encode t ~sector_bytes =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic;
  Bytebuf.Writer.u64 w t.uid;
  Bytebuf.Writer.string w t.name;
  Bytebuf.Writer.u32 w t.version;
  Bytebuf.Writer.u16 w t.keep;
  Bytebuf.Writer.i64 w t.byte_size;
  Bytebuf.Writer.i64 w t.created;
  Run_table.encode w t.runs;
  (match t.kind with
  | Local -> Bytebuf.Writer.u8 w 0
  | Cached { server; last_used } ->
    Bytebuf.Writer.u8 w 1;
    Bytebuf.Writer.string w server;
    Bytebuf.Writer.i64 w last_used);
  let body = Bytebuf.Writer.contents w in
  Bytebuf.Writer.u32 w (Crc32.bytes body);
  let out = Bytes.make (sectors * sector_bytes) '\000' in
  let b = Bytebuf.Writer.contents w in
  if Bytes.length b > Bytes.length out then invalid_arg "Header.encode: too large";
  Bytes.blit b 0 out 0 (Bytes.length b);
  out

let decode image =
  match
    let r = Bytebuf.Reader.of_bytes image in
    let m = Bytebuf.Reader.u32 r in
    if m <> magic then None
    else begin
      let uid = Bytebuf.Reader.u64 r in
      let name = Bytebuf.Reader.string r in
      let version = Bytebuf.Reader.u32 r in
      let keep = Bytebuf.Reader.u16 r in
      let byte_size = Bytebuf.Reader.i64 r in
      let created = Bytebuf.Reader.i64 r in
      let runs = Run_table.decode r in
      let kind =
        match Bytebuf.Reader.u8 r with
        | 0 -> Local
        | 1 ->
          let server = Bytebuf.Reader.string r in
          let last_used = Bytebuf.Reader.i64 r in
          Cached { server; last_used }
        | _ -> raise (Bytebuf.Decode_error "bad header kind")
      in
      let body_len = Bytebuf.Reader.pos r in
      let crc = Bytebuf.Reader.u32 r in
      if crc <> Crc32.bytes ~pos:0 ~len:body_len image then None
      else Some { uid; name; version; keep; byte_size; created; runs; kind }
    end
  with
  | v -> v
  | exception Bytebuf.Decode_error _ -> None
  | exception Invalid_argument _ -> None

let labels t =
  [
    { Label.uid = t.uid; page = 0; kind = Label.Header };
    { Label.uid = t.uid; page = 1; kind = Label.Header };
  ]
