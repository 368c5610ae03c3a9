open Cedar_fsbase

let format =
  File_record.{ magic = 0x4c445232 (* "LDR2" *); sectors = 1; order = Kind_first }

let of_entry ~name ~version (e : Entry.t) =
  let { Entry.uid; keep; byte_size; created; runs; kind; _ } = e in
  { File_record.uid; name; version; keep; byte_size; created; runs; kind }

let to_entry (l : File_record.t) ~anchor =
  let { File_record.uid; keep; byte_size; created; runs; kind; _ } = l in
  { Entry.uid; keep; byte_size; created; runs; anchor; kind }

let matches (l : File_record.t) ~name ~version (e : Entry.t) =
  Int64.equal l.File_record.uid e.Entry.uid
  && String.equal l.File_record.name name
  && l.File_record.version = version
  && l.File_record.byte_size = e.Entry.byte_size
  && l.File_record.created = e.Entry.created
  && Run_table.equal l.File_record.runs e.Entry.runs
