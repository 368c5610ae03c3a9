open Cedar_util

type run = { start : int; len : int }
type t = { runs : run list; pages : int }

let empty = { runs = []; pages = 0 }

(* Merges physically adjacent runs; a list with none to merge comes back
   as itself, unallocated. *)
let rec coalesce = function
  | a :: b :: rest when a.start + a.len = b.start ->
    coalesce ({ start = a.start; len = a.len + b.len } :: rest)
  | a :: rest as runs ->
    let rest' = coalesce rest in
    if rest' == rest then runs else a :: rest'
  | [] -> []

let rec ascending = function
  | a :: (b :: _ as rest) -> a.start < b.start && ascending rest
  | [ _ ] | [] -> true

let validate runs =
  List.iter
    (fun r ->
      if r.len <= 0 || r.start < 0 then invalid_arg "Run_table: bad run")
    runs;
  (* No two runs may overlap, regardless of logical order. A file's runs
     usually ascend already, and then need no sorting. *)
  let sorted =
    if ascending runs then runs
    else List.sort (fun a b -> Int.compare a.start b.start) runs
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if a.start + a.len > b.start then invalid_arg "Run_table: overlapping runs";
      check rest
    | [ _ ] | [] -> ()
  in
  check sorted

let of_runs runs =
  validate runs;
  let runs = coalesce runs in
  { runs; pages = List.fold_left (fun acc r -> acc + r.len) 0 runs }

let runs t = t.runs
let pages t = t.pages

let holds t ~sector_bytes ~byte_size =
  byte_size >= 0 && t.pages = (max 0 (byte_size - 1) / sector_bytes) + 1

let size_mismatch t ~sector_bytes ~key ~byte_size =
  if holds t ~sector_bytes ~byte_size then None
  else
    Some
      (Printf.sprintf "%s: byte size %d does not fit its %d data pages" key byte_size
         t.pages)

let append t r =
  of_runs (t.runs @ [ r ])

let sector_of_page t p =
  if p < 0 || p >= t.pages then invalid_arg "Run_table.sector_of_page";
  let rec go p = function
    | r :: rest -> if p < r.len then r.start + p else go (p - r.len) rest
    | [] -> assert false
  in
  go p t.runs

let contiguous_prefix t ~page =
  if page < 0 || page >= t.pages then invalid_arg "Run_table.contiguous_prefix";
  let rec go p = function
    | r :: rest -> if p < r.len then r.len - p else go (p - r.len) rest
    | [] -> assert false
  in
  go page t.runs

let iter_sectors t f =
  List.iter
    (fun r ->
      for i = r.start to r.start + r.len - 1 do
        f i
      done)
    t.runs

let equal a b = a.runs = b.runs

let encode w t =
  Bytebuf.Writer.list w
    (fun w r ->
      Bytebuf.Writer.u32 w r.start;
      Bytebuf.Writer.u32 w r.len)
    t.runs

let rec decode_runs r n =
  if n = 0 then []
  else
    let start = Bytebuf.Reader.u32 r in
    let len = Bytebuf.Reader.u32 r in
    { start; len } :: decode_runs r (n - 1)

(* A table [of_runs] refuses is malformed input, refused like any other. *)
let decode r =
  match of_runs (decode_runs r (Bytebuf.Reader.u16 r)) with
  | t -> t
  | exception Invalid_argument m -> raise (Bytebuf.Decode_error m)
