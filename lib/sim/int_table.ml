(* Open-addressed hash table specialised to non-negative int keys.

   The simulator's hot tables (address -> value, address -> line state,
   address -> forward entry) are all int-keyed, never delete, and sit on
   the per-memory-op path, where Stdlib.Hashtbl's bucket lists and boxed
   bindings dominate.  This table keeps keys in one flat int array
   (-1 = empty) with linear probing over a power-of-two capacity, and
   looks up with zero allocation.

   The tables are cleared between litmus trials, which touch a handful
   of entries, so [clear] must not cost the capacity: the first
   occupied slots are listed in [used], and while every entry is listed
   [clear] empties exactly those.  The list holds as many entries as
   the initial capacity does before it grows, and is never reallocated:
   a table that grows large (a long simulation's value store) pays for
   no list, and its rare clear fills the arrays. *)

type 'a t = {
  mutable keys : int array; (* -1 marks an empty slot *)
  mutable vals : 'a array;
  used : int array; (* [used.(n)], [n < min count (length used)]: the occupied slots *)
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable count : int;
  dummy : 'a; (* fills unused value slots *)
}

let create ?(capacity = 16) dummy =
  let cap = ref 16 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  {
    keys = Array.make !cap (-1);
    vals = Array.make !cap dummy;
    used = Array.make ((!cap * 5 / 8) + 1) 0;
    mask = !cap - 1;
    count = 0;
    dummy;
  }

let length t = t.count

(* Fibonacci-style multiplicative hash: cheap and well-spread for the
   mostly-sequential line addresses the simulator generates. *)
let[@inline] hash k mask =
  let h = k * 0x9E3779B9 in
  (h lxor (h lsr 16)) land mask

let rec probe keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k || key = -1 then i else probe keys mask k ((i + 1) land mask)

let[@inline] slot t k = probe t.keys t.mask k (hash k t.mask)

(* Rehash in slot order, listing the new slots while [used] has room. *)
let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  let n = ref 0 in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k >= 0 then begin
      let j = slot t k in
      Array.unsafe_set t.keys j k;
      Array.unsafe_set t.vals j (Array.unsafe_get old_vals i);
      if !n < Array.length t.used then Array.unsafe_set t.used !n j;
      incr n
    end
  done

(* Bind [k] in the free slot [i]. *)
let insert t i k v =
  Array.unsafe_set t.keys i k;
  Array.unsafe_set t.vals i v;
  if t.count < Array.length t.used then Array.unsafe_set t.used t.count i;
  t.count <- t.count + 1;
  (* grow at 5/8 load to keep probe chains short *)
  if t.count * 8 > (t.mask + 1) * 5 then grow t

let set t k v =
  if k < 0 then invalid_arg "Int_table.set: negative key";
  let i = slot t k in
  if Array.unsafe_get t.keys i = -1 then insert t i k v else Array.unsafe_set t.vals i v

let get t k ~default =
  if k < 0 then default
  else
    let i = slot t k in
    if Array.unsafe_get t.keys i = -1 then default else Array.unsafe_get t.vals i

let mem t k =
  k >= 0 && Array.unsafe_get t.keys (slot t k) <> -1

(* Find the value for [k], inserting [make k] first if absent.  The hot
   path (present) allocates nothing. *)
let find_or_add t k make =
  if k < 0 then invalid_arg "Int_table.find_or_add: negative key";
  let i = slot t k in
  if Array.unsafe_get t.keys i <> -1 then Array.unsafe_get t.vals i
  else begin
    let v = make k in
    (* [make] must not touch the table, so slot [i] is still free *)
    insert t i k v;
    v
  end

let fold t f acc =
  let keys = t.keys and vals = t.vals in
  let acc = ref acc in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then acc := f k (Array.unsafe_get vals i) !acc
  done;
  !acc

let clear t =
  if t.count <= Array.length t.used then
    for n = 0 to t.count - 1 do
      let i = Array.unsafe_get t.used n in
      Array.unsafe_set t.keys i (-1);
      Array.unsafe_set t.vals i t.dummy
    done
  else begin
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    Array.fill t.vals 0 (Array.length t.vals) t.dummy
  end;
  t.count <- 0
