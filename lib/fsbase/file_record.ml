open Cedar_util

type t = {
  uid : int64;
  name : string;
  version : int;
  keep : int;
  byte_size : int;
  created : int;
  runs : Run_table.t;
  kind : Entry.kind;
}

type order = Runs_first | Kind_first
type format = { magic : int; sectors : int; order : order }

(* Cached records carry kind tag 1, unlike name-table entries (tag 2). *)
let encode_kind w = function
  | Entry.Local -> Bytebuf.Writer.u8 w 0
  | Entry.Cached { server; last_used } ->
    Bytebuf.Writer.u8 w 1;
    Bytebuf.Writer.string w server;
    Bytebuf.Writer.i64 w last_used

let decode_kind r =
  match Bytebuf.Reader.u8 r with
  | 0 -> Entry.Local
  | 1 ->
    let server = Bytebuf.Reader.string r in
    let last_used = Bytebuf.Reader.i64 r in
    Entry.Cached { server; last_used }
  | n -> raise (Bytebuf.Decode_error (Printf.sprintf "bad record kind %d" n))

let encode fmt t ~sector_bytes =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w fmt.magic;
  Bytebuf.Writer.u64 w t.uid;
  Bytebuf.Writer.string w t.name;
  Bytebuf.Writer.u32 w t.version;
  Bytebuf.Writer.u16 w t.keep;
  Bytebuf.Writer.i64 w t.byte_size;
  Bytebuf.Writer.i64 w t.created;
  (match fmt.order with
  | Runs_first ->
    Run_table.encode w t.runs;
    encode_kind w t.kind
  | Kind_first ->
    encode_kind w t.kind;
    Run_table.encode w t.runs);
  Bytebuf.Writer.seal w ~size:(fmt.sectors * sector_bytes)

let decode fmt image =
  Bytebuf.Reader.unseal ~magic:fmt.magic image (fun r ->
      let uid = Bytebuf.Reader.u64 r in
      let name = Bytebuf.Reader.string r in
      let version = Bytebuf.Reader.u32 r in
      let keep = Bytebuf.Reader.u16 r in
      let byte_size = Bytebuf.Reader.i64 r in
      let created = Bytebuf.Reader.i64 r in
      let runs, kind =
        match fmt.order with
        | Runs_first ->
          let runs = Run_table.decode r in
          (runs, decode_kind r)
        | Kind_first ->
          let kind = decode_kind r in
          (Run_table.decode r, kind)
      in
      { uid; name; version; keep; byte_size; created; runs; kind })
