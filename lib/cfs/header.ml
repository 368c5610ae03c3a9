open Cedar_disk
open Cedar_fsbase

let sectors = 2

let format =
  File_record.{ magic = 0x43484431 (* "CHD1" *); sectors; order = Runs_first }

let labels uid =
  List.init sectors (fun page -> { Label.uid; page; kind = Label.Header })
