(* Table-driven CRC-32, reflected polynomial 0xedb88320 (IEEE/zlib),
   eight bytes per step ("slicing-by-8"). The register lives in a
   native int (the low 32 bits), so the loops allocate nothing; only
   the [int32] result is boxed.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic byte table, and table k advances a byte through k further
   zero bytes, so one step folds eight input bytes with eight
   independent lookups instead of a chain of eight. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Unchecked: [digest_sub] checks its range once, and every table
   index below is masked into its table. *)
let[@inline] byte s i = Char.code (String.unsafe_get s i)
let[@inline] t k i = Array.unsafe_get tables ((k * 256) + i)

let digest_sub ?(init = 0l) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.digest_sub";
  let crc = ref (Int32.to_int init land 0xffffffff lxor 0xffffffff) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let j = !i in
    let c =
      !crc
      lxor (byte s j lor (byte s (j + 1) lsl 8) lor (byte s (j + 2) lsl 16)
           lor (byte s (j + 3) lsl 24))
    in
    crc :=
      t 7 (c land 0xff)
      lxor t 6 ((c lsr 8) land 0xff)
      lxor t 5 ((c lsr 16) land 0xff)
      lxor t 4 (c lsr 24)
      lxor t 3 (byte s (j + 4))
      lxor t 2 (byte s (j + 5))
      lxor t 1 (byte s (j + 6))
      lxor t 0 (byte s (j + 7));
    i := j + 8
  done;
  for j = !i to stop - 1 do
    crc := t 0 ((!crc lxor byte s j) land 0xff) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xffffffff)

let digest ?init s = digest_sub ?init s ~pos:0 ~len:(String.length s)

let to_hex crc = Printf.sprintf "%08lx" crc

let of_hex s =
  if String.length s <> 8 then None
  else
    match Int32.of_string_opt ("0x" ^ s) with
    | Some _ as ok when String.for_all (function
        | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
        | _ -> false) s ->
        ok
    | _ -> None
