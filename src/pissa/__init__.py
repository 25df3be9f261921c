"""Principal-singular-value adapter toolkit.

Numerical kernels (SVD, QR, randomized SVD), low-rank adapter construction
and algebra, 4-bit NormalFloat quantization with quantized initializers,
a toy fine-tuning harness, and an experiment CLI.
"""

from .adapter import (WINDOWS, AdapterPair, DecomposedLayer,
                      adapter_gradients, forward, lora_init, merge,
                      pissa_init, reconstruction_error, to_lora_delta,
                      variant_init)
from .linalg import (RandomSource, ShapeError, SvdFactors, exact_svd,
                     frobenius_norm, leading_svd, nuclear_norm, qr_thin,
                     randomized_svd)
from .quant import (NF4_LEVELS, QuantConfig, QuantizedMatrix, QuantReport,
                    dequantize, distribution_diagnostics, error_reduction_ratio,
                    loftq_init, qlora_error, qlora_init, qpissa_init, quantize)
from .train import (Dataset, MlpModel, TrainConfig, TrainTrace,
                    adamw_step, cosine_warmup_lr, cross_entropy_with_grad,
                    gradcheck, inject_adapters, model_forward_backward,
                    pretrain_mlp, run_finetune, train_model)

__version__ = "0.1.0"
