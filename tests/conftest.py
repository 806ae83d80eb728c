"""Helpers shared by the test modules: the received-sample builder of the
channel oracles, the decoder's two-sample intersection, and the exact
engine's stacked passes and set-up applied to one table."""
import numpy as np

from ascoding import comms
from ascoding.core import Correspondence, Dataset, Kind
from ascoding.exact import ExactTables, stacked_log_partition, stacked_moments


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


def log_partition(table, beta):
    """log Z of one table at one beta: a stack of one."""
    return float(stacked_log_partition([table], [beta])[0])


def moments(table, beta):
    """(log Z, mean excess, variance) of one table at one beta: a stack of one."""
    return tuple(float(v[0]) for v in stacked_moments([table], [beta]))


def minimizer_labels(table):
    """The training minimizer that ExactTables.stack finds on table, as labels."""
    same = Correspondence(nu=np.arange(table.n), n=table.n)
    (tables,) = ExactTables.stack([table], [table], [same])
    return tables.minimizer.labels
