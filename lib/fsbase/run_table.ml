open Cedar_util

type run = { start : int; len : int }
type t = { runs : run list; pages : int }

let empty = { runs = []; pages = 0 }

let coalesce runs =
  let rec go = function
    | a :: b :: rest when a.start + a.len = b.start ->
      go ({ start = a.start; len = a.len + b.len } :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go runs

let validate runs =
  List.iter
    (fun r ->
      if r.len <= 0 || r.start < 0 then invalid_arg "Run_table: bad run")
    runs;
  (* No two runs may overlap, regardless of logical order. *)
  let sorted = List.sort (fun a b -> compare a.start b.start) runs in
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

let decode r =
  let runs =
    Bytebuf.Reader.list r (fun r ->
        let start = Bytebuf.Reader.u32 r in
        let len = Bytebuf.Reader.u32 r in
        { start; len })
  in
  of_runs runs
