"""Numpy layers (``layers``), recurrent cells (``recurrent``) and RMSProp (``optim``)."""
