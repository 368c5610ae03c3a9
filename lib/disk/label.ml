open Cedar_util

type kind = Free | Header | Data | Fnt | Vam | Boot
type t = { uid : int64; page : int; kind : kind }

let free = { uid = 0L; page = 0; kind = Free }

let equal a b = a.uid = b.uid && a.page = b.page && a.kind = b.kind

let kind_to_int = function
  | Free -> 0
  | Header -> 1
  | Data -> 2
  | Fnt -> 3
  | Vam -> 4
  | Boot -> 5

let kind_of_int = function
  | 0 -> Free
  | 1 -> Header
  | 2 -> Data
  | 3 -> Fnt
  | 4 -> Vam
  | 5 -> Boot
  | n -> raise (Bytebuf.Decode_error (Printf.sprintf "bad label kind %d" n))

let encode t =
  let w = Bytebuf.Writer.create ~initial:16 () in
  Bytebuf.Writer.u64 w t.uid;
  Bytebuf.Writer.u32 w t.page;
  Bytebuf.Writer.u8 w (kind_to_int t.kind);
  Bytebuf.Writer.contents w

let decode b =
  let r = Bytebuf.Reader.of_bytes b in
  let uid = Bytebuf.Reader.u64 r in
  let page = Bytebuf.Reader.u32 r in
  let kind = kind_of_int (Bytebuf.Reader.u8 r) in
  { uid; page; kind }
