(** Greedy march-test synthesis.

    The TRPLA's control code is loaded from plane files, so deploying a
    new algorithm is cheap; this module generates one.  Starting from
    the initializing element, the synthesizer greedily appends the
    march element (from a classical element pool, including retention
    waits) that buys the most coverage per added operation on a given
    fault sample, until the target coverage is reached.  An extension
    in the paper's "changing the control files" spirit. *)

type result = {
  march : March.t;
  coverage : Coverage.result;
  achieved : float;  (** total coverage percent *)
}

(** [synthesize org ~faults ~backgrounds ~target] — grows a march until
    [target] percent of [faults] are detected or [max_elements]
    (default 12) is reached.  The result always passes on a fault-free
    RAM. *)
val synthesize :
  ?max_elements:int ->
  Bisram_sram.Org.t ->
  faults:Bisram_faults.Fault.t list ->
  backgrounds:Bisram_sram.Word.t list ->
  target:float ->
  result
