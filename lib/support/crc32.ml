(* Table-driven CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) —
   the checksum used by zip/png and by our page and WAL formats.

   Slicing-by-8: table k (k = 0..7, stored at offset 256k of one flat
   array) maps a byte to the CRC contribution of that byte followed by k
   zero bytes, so one step folds eight input bytes through eight
   independent lookups instead of a chain of eight.  The checksums are
   those of the byte-at-a-time loop, which still handles the tail. *)

let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let update crc b ~pos ~len =
  let t = Lazy.force tables in
  (* [c] stays within 32 bits, so every index below is a byte plus a
     table offset, inside the 2048-entry array *)
  let at i = Array.unsafe_get t i in
  let c = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo =
      !c
      lxor (Bytes.get_uint16_le b !i lor (Bytes.get_uint16_le b (!i + 2) lsl 16))
    in
    let hi =
      Bytes.get_uint16_le b (!i + 4) lor (Bytes.get_uint16_le b (!i + 6) lsl 16)
    in
    c :=
      at (1792 + (lo land 0xff))
      lxor at (1536 + ((lo lsr 8) land 0xff))
      lxor at (1280 + ((lo lsr 16) land 0xff))
      lxor at (1024 + (lo lsr 24))
      lxor at (768 + (hi land 0xff))
      lxor at (512 + ((hi lsr 8) land 0xff))
      lxor at (256 + ((hi lsr 16) land 0xff))
      lxor at (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := at ((!c lxor Char.code (Bytes.get b !i)) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  update 0 b ~pos ~len

let string ?pos ?len s = bytes ?pos ?len (Bytes.unsafe_of_string s)
