"""Helpers shared by the test modules: the received-sample builder of the
channel oracles, and the decoder's two-sample intersection."""
import numpy as np

from ascoding import comms
from ascoding.core import Dataset, Kind


def permute_dataset(data: Dataset, sigma: np.ndarray) -> Dataset:
    """Reorder object indices: output object i is input object sigma[i].
    Dissimilarities are permuted congruently on rows and columns."""
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.shape != (data.n,):
        raise ValueError(f"permutation length {sigma.size} != n = {data.n}")
    if data.kind is Kind.VECTORS:
        return Dataset.from_vectors(data.vectors[sigma])
    return Dataset.from_dissimilarities(data.dissim[np.ix_(sigma, sigma)])


def decoded_intersection(table1, table2, corr, gamma):
    """The channel decoder's score of the sent identity codeword on the test
    table table2: the two-sample approximation-set intersection."""
    identity = comms.Codebook(sigmas=np.arange(table1.n)[None], rate_bits=0.0, seed=0)
    codewords = comms._codeword_weights(identity, np.zeros(1, dtype=np.int64), corr.nu[None],
                                        table1.k)
    (((score,),),) = comms._overlap_scores([table1], [table2], codewords, [gamma])
    return int(score)
