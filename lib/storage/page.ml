(* Slotted pages: the classic layout.  Records grow upward from the
   header, the slot directory grows downward from the end; a slot is
   (offset, length) and length 0xffff marks a dead slot.  The first four
   bytes hold the CRC32 of the rest of the page, written by the pager on
   flush and verified on read.

   layout (little-endian):
     0  u32  crc32 of bytes 4..size-1
     4  u8   kind
     5  i64  lsn of the last logged update applied to this page
     13 u32  next page id in the chain (0 = end)
     17 u16  slot count
     19 u16  free-space offset (first unused data byte)
     21 ...  record data
     size - 4*nslots ... size: slot directory, 4 bytes per slot *)

let size = 4096
let header_bytes = 21
let dead = 0xffff

type t = Bytes.t

exception Page_full

let kind p = Bytes.get_uint8 p 4
let lsn p = Int64.to_int (Bytes.get_int64_le p 5)
let set_lsn p l = Bytes.set_int64_le p 5 (Int64.of_int (max l (lsn p)))
let next p = Int32.to_int (Bytes.get_int32_le p 13)
let set_next p n = Bytes.set_int32_le p 13 (Int32.of_int n)
let nslots p = Bytes.get_uint16_le p 17
let set_nslots p n = Bytes.set_uint16_le p 17 n
let free_off p = Bytes.get_uint16_le p 19
let set_free_off p n = Bytes.set_uint16_le p 19 n

let init ~kind =
  let p = Bytes.make size '\000' in
  Bytes.set_uint8 p 4 kind;
  set_free_off p header_bytes;
  p

let slot_pos i = size - (4 * (i + 1))

let slot p i =
  let pos = slot_pos i in
  (Bytes.get_uint16_le p pos, Bytes.get_uint16_le p (pos + 2))

let set_slot p i ~off ~len =
  let pos = slot_pos i in
  Bytes.set_uint16_le p pos off;
  Bytes.set_uint16_le p (pos + 2) len

let free_space p = size - (4 * nslots p) - free_off p

let insert p record =
  let len = String.length record in
  if len >= dead then invalid_arg "Page.insert: record too large";
  if free_space p < len + 4 then raise Page_full;
  let off = free_off p in
  Bytes.blit_string record 0 p off len;
  let i = nslots p in
  set_nslots p (i + 1);
  set_slot p i ~off ~len;
  set_free_off p (off + len);
  i

let read_slot p i =
  if i < 0 || i >= nslots p then invalid_arg "Page.read_slot: bad slot";
  let off, len = slot p i in
  if len = dead then None else Some (Bytes.sub_string p off len)

let overwrite p i record =
  if i < 0 || i >= nslots p then invalid_arg "Page.overwrite: bad slot";
  let off, len = slot p i in
  if len = dead || len <> String.length record then false
  else begin
    Bytes.blit_string record 0 p off len;
    true
  end

let delete_slot p i =
  if i < 0 || i >= nslots p then invalid_arg "Page.delete_slot: bad slot";
  let off, _ = slot p i in
  set_slot p i ~off ~len:dead

let records p =
  let out = ref [] in
  for i = nslots p - 1 downto 0 do
    match read_slot p i with
    | Some r -> out := (i, r) :: !out
    | None -> ()
  done;
  !out

(* Live records in slot order, in place: [f] gets each record's slot,
   and its offset and length within [p]. *)
let iter_live p f =
  for i = 0 to nslots p - 1 do
    let pos = slot_pos i in
    let len = Bytes.get_uint16_le p (pos + 2) in
    if len <> dead then begin
      let off = Bytes.get_uint16_le p pos in
      if off + len > size then invalid_arg "Page.iter_live: record out of bounds";
      f i ~off ~len
    end
  done

let seal p =
  let crc = Support.Crc32.bytes p ~pos:4 ~len:(size - 4) in
  Bytes.set_int32_le p 0 (Int32.of_int crc)

let check p =
  let stored = Int32.to_int (Bytes.get_int32_le p 0) land 0xFFFFFFFF in
  let computed = Support.Crc32.bytes p ~pos:4 ~len:(size - 4) in
  stored = computed
