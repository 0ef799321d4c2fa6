(* Release-word payloads follow the shared delegation encoding
   (Armb_primitives.Delegation): 0 waiting, 1 combiner handoff,
   (ret<<2)|3 completed.  In pilot mode the same payloads travel
   Pilot-encoded, so repeated releases of the same node always change
   the word. *)
module Delegation = Armb_primitives.Delegation.Over_int

type node = {
  mutable req : (unit -> int) option;
  release : Pilot_codec.cell; (* plain mode uses its data word raw *)
  next : node option Atomic.t;
}

type t = {
  tail : node Atomic.t;
  spare : node option Atomic.t;
  pilot : bool;
  combine_bound : int;
  combine_count : int Atomic.t;
}

(* The Pilot shuffle pool is read-only, so every lock shares one. *)
let pool = Pilot_codec.make_pool ~seed:23 ()

let make_node () = { req = None; release = Pilot_codec.cell pool; next = Atomic.make None }

let release pilot node payload =
  if pilot then ignore (Pilot_codec.send node.release payload)
  else Atomic.set node.release.data payload

let await pilot node =
  if pilot then Pilot_codec.recv node.release
  else begin
    let word = node.release.data in
    Backoff.wait (fun () -> Atomic.get word <> Delegation.waiting);
    Atomic.get word
  end

let create ?(pilot = false) ?(combine_bound = 64) () =
  if combine_bound < 1 then invalid_arg "Dsmsynch.create";
  let boot = make_node () in
  (* The bootstrap node is pre-released as "combiner handoff". *)
  release pilot boot Delegation.handoff;
  {
    tail = Atomic.make boot;
    spare = Atomic.make None;
    pilot;
    combine_bound;
    combine_count = Atomic.make 0;
  }

(* CC-Synch rotates nodes: a call enqueues a fresh node and is served in
   the node it received, which it keeps for its next call.  One spare
   per lock stands in for the per-thread node: a call takes it, or a new
   node when another call holds it, and gives back the node it was
   served in. *)
let exec t f =
  let fresh =
    match Atomic.exchange t.spare None with Some n -> n | None -> make_node ()
  in
  Atomic.set fresh.next None;
  if not t.pilot then Atomic.set fresh.release.data Delegation.waiting;
  let cur = Atomic.exchange t.tail fresh in
  cur.req <- Some f;
  Atomic.set cur.next (Some fresh);
  let payload = await t.pilot cur in
  let result =
    if Delegation.is_handoff payload then begin
      (* We are the combiner: serve the chain starting at our own node. *)
      let my_ret = ref 0 in
      let tmp = ref cur and budget = ref t.combine_bound and looping = ref true in
      while !looping do
        match Atomic.get !tmp.next with
        | Some nxt when !budget > 0 ->
          let g = match !tmp.req with Some g -> g | None -> fun () -> 0 in
          let r = g () in
          !tmp.req <- None;
          decr budget;
          if !tmp == cur then my_ret := r
          else begin
            Atomic.incr t.combine_count;
            release t.pilot !tmp (Delegation.pack ~ret:r ~completed:true)
          end;
          tmp := nxt
        | _ ->
          (* unlinked, or out of budget: hand the combiner role on *)
          release t.pilot !tmp Delegation.handoff;
          looping := false
      done;
      !my_ret
    end
    else fst (Delegation.unpack payload)
  in
  Atomic.set t.spare (Some cur);
  result

let combines t = Atomic.get t.combine_count
