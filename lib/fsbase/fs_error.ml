type t =
  | No_such_file of string
  | Bad_name of { name : string; reason : string }
  | Volume_full
  | Too_fragmented of string
  | Corrupt_metadata of string
  | Damaged_data of { name : string; sector : int }
  | Bad_page of { name : string; page : int }
  | Not_booted
  | Unsupported_format of string

exception Fs_error of t

let raise_ e = raise (Fs_error e)

let pp ppf = function
  | No_such_file n -> Format.fprintf ppf "no such file: %s" n
  | Bad_name { name; reason } -> Format.fprintf ppf "bad name %S: %s" name reason
  | Volume_full -> Format.fprintf ppf "volume full"
  | Too_fragmented n -> Format.fprintf ppf "file too fragmented: %s" n
  | Corrupt_metadata m -> Format.fprintf ppf "corrupt metadata: %s" m
  | Damaged_data { name; sector } ->
    Format.fprintf ppf "damaged sector %d in %s" sector name
  | Bad_page { name; page } -> Format.fprintf ppf "page %d out of range in %s" page name
  | Not_booted -> Format.fprintf ppf "file system not booted"
  | Unsupported_format m -> Format.fprintf ppf "unsupported volume format: %s" m

let to_string t = Format.asprintf "%a" pp t
