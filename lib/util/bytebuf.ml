exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

module Writer = struct
  type t = Buffer.t

  let create ?(initial = 256) () = Buffer.create initial
  let u8 w v =
    if v < 0 || v > 0xff then invalid_arg "Bytebuf.Writer.u8";
    Buffer.add_char w (Char.chr v)

  let u16 w v =
    if v < 0 || v > 0xffff then invalid_arg "Bytebuf.Writer.u16";
    Buffer.add_uint16_le w v

  let u32 w v =
    if v < 0 || v > 0xffffffff then invalid_arg "Bytebuf.Writer.u32";
    Buffer.add_int32_le w (Int32.of_int v)

  let u64 w v = Buffer.add_int64_le w v
  let i64 w v = u64 w (Int64.of_int v)
  let bool w b = u8 w (if b then 1 else 0)

  let bytes w b =
    u16 w (Bytes.length b);
    Buffer.add_bytes w b

  let string w s =
    u16 w (String.length s);
    Buffer.add_string w s

  let raw w b = Buffer.add_bytes w b

  let fixed_string w ~width s =
    if String.length s > width then invalid_arg "Bytebuf.Writer.fixed_string";
    if String.contains s '\000' then
      invalid_arg "Bytebuf.Writer.fixed_string: embedded NUL";
    Buffer.add_string w s;
    for _ = String.length s + 1 to width do
      Buffer.add_char w '\000'
    done

  let list w f xs =
    u16 w (List.length xs);
    List.iter (f w) xs

  let contents w = Buffer.to_bytes w

  let to_sector w ~size =
    let n = Buffer.length w in
    if n > size then
      invalid_arg
        (Printf.sprintf "Bytebuf.Writer.to_sector: %d bytes > sector %d" n size);
    let out = Bytes.make size '\000' in
    Buffer.blit w 0 out 0 n;
    out

  let seal w ~size =
    let n = Buffer.length w in
    if n + 4 > size then
      invalid_arg
        (Printf.sprintf "Bytebuf.Writer.seal: %d bytes + CRC > sector %d" n size);
    let out = to_sector w ~size in
    Bytes.set_int32_le out n (Int32.of_int (Crc32.bytes ~len:n out));
    out
end

module Reader = struct
  type t = { buf : bytes; limit : int; mutable pos : int }

  let of_bytes ?(pos = 0) ?len buf =
    let len = match len with Some l -> l | None -> Bytes.length buf - pos in
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then
      invalid_arg "Bytebuf.Reader.of_bytes";
    { buf; limit = pos + len; pos }

  let need r n = if r.pos + n > r.limit then fail "truncated input (need %d at %d, limit %d)" n r.pos r.limit

  let u8 r =
    need r 1;
    let v = Char.code (Bytes.get r.buf r.pos) in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    need r 2;
    let v = Bytes.get_uint16_le r.buf r.pos in
    r.pos <- r.pos + 2;
    v

  let u32 r =
    need r 4;
    let v = Int32.to_int (Bytes.get_int32_le r.buf r.pos) land 0xffffffff in
    r.pos <- r.pos + 4;
    v

  let u64 r =
    need r 8;
    let v = Bytes.get_int64_le r.buf r.pos in
    r.pos <- r.pos + 8;
    v

  let i64 r = Int64.to_int (u64 r)

  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | v -> fail "invalid boolean byte %d" v

  let raw r n =
    need r n;
    let b = Bytes.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    b

  let bytes r =
    let n = u16 r in
    raw r n

  let string r = Bytes.to_string (bytes r)

  let fixed_string r ~width =
    let b = raw r width in
    let len =
      match Bytes.index_opt b '\000' with Some i -> i | None -> width
    in
    Bytes.sub_string b 0 len

  let list r f =
    let n = u16 r in
    List.init n (fun _ -> f r)

  let pos r = r.pos
  let remaining r = r.limit - r.pos
end
