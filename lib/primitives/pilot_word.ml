module type WORD = sig
  type t

  val equal : t -> t -> bool
  val logxor : t -> t -> t
  val zero : t
  val of_pool : int64 -> t
end

module type S = sig
  type word
  type write_op = Write_data of word | Toggle_flag
  type sender
  type receiver

  val make_pool : ?size:int -> seed:int -> unit -> word array
  val sender : word array -> sender
  val receiver : word array -> receiver
  val encode : sender -> word -> write_op
  val try_decode : receiver -> data:word -> flag:word -> word option
  val sent : sender -> int
  val received : receiver -> int
end

module Make (W : WORD) = struct
  type word = W.t
  type write_op = Write_data of W.t | Toggle_flag

  type sender = {
    s_pool : W.t array;
    mutable s_cnt : int;
    mutable s_old_data : W.t;  (* last value written to the shared data word *)
  }

  type receiver = {
    r_pool : W.t array;
    mutable r_cnt : int;
    mutable r_old_data : W.t;
    mutable r_old_flag : W.t;
  }

  let default_pool_size = 64

  let make_pool ?(size = default_pool_size) ~seed () =
    if size <= 0 then invalid_arg "Pilot.make_pool: size must be positive";
    let rng = Armb_sim.Rng.create (seed lxor 0x9E37) in
    Array.init size (fun _ -> W.of_pool (Armb_sim.Rng.bits64 rng))

  let sender pool =
    if Array.length pool = 0 then invalid_arg "Pilot.sender: empty pool";
    { s_pool = pool; s_cnt = 0; s_old_data = W.zero }

  let receiver pool =
    if Array.length pool = 0 then invalid_arg "Pilot.receiver: empty pool";
    { r_pool = pool; r_cnt = 0; r_old_data = W.zero; r_old_flag = W.zero }

  (* Algorithm 3: shuffle, then either publish the new data word or,
     when the shuffled value collides with the previous one, toggle the
     flag (the data word already holds the right value). *)
  let encode s msg =
    let h = s.s_pool.(s.s_cnt mod Array.length s.s_pool) in
    s.s_cnt <- s.s_cnt + 1;
    let shuffled = W.logxor msg h in
    if W.equal shuffled s.s_old_data then Toggle_flag
    else begin
      s.s_old_data <- shuffled;
      Write_data shuffled
    end

  (* Algorithm 4: a change in [data] or in [flag] both mean "one new
     message"; in the flag case the payload is the (unchanged) data
     word. *)
  let try_decode r ~data ~flag =
    let fresh =
      if not (W.equal data r.r_old_data) then begin
        r.r_old_data <- data;
        true
      end
      else if not (W.equal flag r.r_old_flag) then begin
        r.r_old_flag <- flag;
        true
      end
      else false
    in
    if not fresh then None
    else begin
      let h = r.r_pool.(r.r_cnt mod Array.length r.r_pool) in
      r.r_cnt <- r.r_cnt + 1;
      Some (W.logxor r.r_old_data h)
    end

  let sent s = s.s_cnt
  let received r = r.r_cnt
end
